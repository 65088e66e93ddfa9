#include "src/cluster/straggler.h"

#include "src/common/logging.h"

namespace optimus {

bool StragglerModel::Step(Job* job, Rng* rng) {
  OPTIMUS_CHECK(job != nullptr);
  OPTIMUS_CHECK(rng != nullptr);

  // Transient contention can clear up on its own, whether or not the
  // scheduler intervenes.
  if (job->slowest_worker_factor() < 1.0 &&
      rng->Bernoulli(config_.natural_recovery_prob)) {
    job->set_slowest_worker_factor(1.0);
  }

  if (config_.injection_prob_per_interval > 0.0 && job->num_workers() > 0 &&
      rng->Bernoulli(config_.injection_prob_per_interval)) {
    const double factor = rng->Uniform(config_.slow_factor_lo, config_.slow_factor_hi);
    // A newly injected straggler only matters if it is slower than whatever
    // is already limiting the job.
    if (factor < job->slowest_worker_factor()) {
      job->set_slowest_worker_factor(factor);
    }
    ++injections_;
  }

  // Detection: healthy workers run at factor 1.0 (the median), so the
  // job-level condition reduces to comparing the slowest factor with the
  // threshold. For synchronous jobs the same signal is derived from gradient
  // arrival gaps at the parameter servers (§5.2) — identical factor here.
  if (handling_ &&
      job->slowest_worker_factor() < kStragglerDetectThreshold) {
    job->set_slowest_worker_factor(1.0);
    job->AddStall(kStragglerReplaceDelayS);
    ++replacements_;
    return true;
  }
  return false;
}

}  // namespace optimus
