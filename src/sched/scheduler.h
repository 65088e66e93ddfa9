// Scheduler-facing job summaries and the allocator interface.
//
// Schedulers are deliberately decoupled from the simulator: they see, per
// active job, only what the real Optimus controller sees — per-task resource
// demands, an estimate of the remaining work (epochs), and an estimated
// speed function f(p, w) — and they produce worker / parameter-server counts
// per job subject to the cluster capacity (Eqn 5-8).

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/cluster/job.h"
#include "src/cluster/resources.h"
#include "src/models/model_zoo.h"
#include "src/sched/speed_estimate.h"

namespace optimus {

// Progress below which a job is young: its estimates are still unreliable, so
// its policy's young-job damping scales its marginal gain (§4.1).
inline constexpr double kYoungJobProgressCutoff = 0.15;

struct SchedJob {
  int job_id = 0;
  TrainingMode mode = TrainingMode::kSync;
  // Communication architecture. All-reduce jobs carry max_ps == 0 and a
  // zero ps_demand: they are scheduled (and their speed surfaces probed)
  // along the p == 0 row only.
  CommMode comm = CommMode::kParameterServer;
  Resources worker_demand;
  Resources ps_demand;
  int max_ps = 32;
  int max_workers = 32;
  // Q_j: estimated epochs still needed to converge.
  double remaining_epochs = 0.0;
  // f(p, w) in epochs/s, a value (src/sched/speed_estimate.h). Jobs with
  // equal estimates and equal caps share one memoized speed surface in a
  // scheduling round (src/sched/speed_surface.h).
  SpeedEstimate speed;
  // Multiplier on the job's marginal gain (§4.1 suggests 0.95 for jobs whose
  // predictions are still unreliable).
  double priority_factor = 1.0;

  // --- Batch-size decision surface (Pollux-style policies) ---------------
  // Reference global batch M0 the epoch bookkeeping is denominated in (the
  // job's configured batch). 0 when not applicable (async jobs).
  int batch_ref = 0;
  // Admissible global-batch range for batch-adaptive policies. A job is
  // batch-adaptive only when batch_min < batch_max and speed is
  // batch_scalable() (its BatchSpeed gives f(p, w, b)); otherwise the batch
  // dimension is fixed at batch_ref.
  int batch_min = 0;
  int batch_max = 0;
  // Gradient-noise-scale parameter phi of the statistical-efficiency model
  // E(b) = (phi + M0) / (phi + b), derived from the convergence model. Larger
  // phi means the job tolerates larger batches before efficiency decays.
  double grad_noise_scale = 0.0;

  // --- Per-resource sensitivity profile (Synergy-style policies) ---------
  // How strongly the job's speed depends on its CPU / memory grant, in
  // [0, 1]. 1.0 = fully sensitive (provision the full demand); 0.0 = flat
  // slope (the job barely notices under-provisioning). Policies that ignore
  // the profile treat every job as fully sensitive.
  double cpu_sensitivity = 1.0;
  double mem_sensitivity = 1.0;
};

// A round copies its jobs freely: no closure, no heap state.
static_assert(std::is_trivially_copyable_v<SchedJob>);

// The one scheduler view of a job: the spec's identity, demands and caps, the
// estimates the caller chose (observed or truth-derived) and the policy's
// priority factor, a sync job's batch surface, and the sensitivity profile.
// All-reduce jobs run no PS tasks: the scheduler sees a zero PS cap and a zero
// PS demand, so every allocator works along the p == 0 row. A sync job with a
// batch range gets `speed` scaled over the batch by the analytic step-time
// ratio of its profile under `comm` (a pure function: no RNG draw); policies
// that ignore the batch dimension never call it.
SchedJob MakeSchedJob(const JobSpec& spec, double remaining_epochs, SpeedEstimate speed,
                      double priority_factor, const CommConfig& comm);

// Statistical efficiency E(b) of training at global batch b relative to the
// reference batch ref_b, under the gradient-noise-scale model
// E(b) = (phi + ref_b) / (phi + b). E(ref_b) == 1 exactly.
inline double StatisticalEfficiency(double grad_noise_scale, double ref_batch,
                                    double batch) {
  if (ref_batch <= 0.0 || batch <= 0.0) {
    return 1.0;
  }
  return (grad_noise_scale + ref_batch) / (grad_noise_scale + batch);
}

// Converts physical steps/s at batch b into reference-batch steps/s:
// one step at batch b makes b * E(b) / ref_b reference steps of progress.
// Equals 1 exactly at b == ref_b, saturates at (phi + ref_b) / ref_b as
// b grows — so goodput peaks at a finite batch once step time grows with b.
inline double BatchProgressFactor(double grad_noise_scale, double ref_batch,
                                  double batch) {
  if (ref_batch <= 0.0 || batch <= 0.0) {
    return 1.0;
  }
  return (batch * (grad_noise_scale + ref_batch)) /
         (ref_batch * (grad_noise_scale + batch));
}

struct Allocation {
  int num_ps = 0;
  int num_workers = 0;
  // Advisory global batch chosen by a batch-adaptive policy; 0 (the default)
  // keeps the job's configured batch. Deliberately excluded from operator==:
  // identity is (p, w) only, so a batch-only adjustment never looks like a
  // scaling event (no checkpoint stall, no trace record).
  int global_batch = 0;

  bool operator==(const Allocation& other) const {
    return num_ps == other.num_ps && num_workers == other.num_workers;
  }
};

// Whether `alloc` actually runs a job of the given communication mode:
// parameter-server jobs need at least one PS and one worker; all-reduce jobs
// need only workers (their num_ps is always 0).
inline bool ActiveAllocation(const Allocation& alloc, CommMode comm) {
  if (comm == CommMode::kAllReduce) {
    return alloc.num_workers > 0;
  }
  return alloc.num_ps > 0 && alloc.num_workers > 0;
}

// Sum of the resources an allocation consumes for one job.
Resources AllocationDemand(const SchedJob& job, const Allocation& alloc);

// Scaling hysteresis (§7 "Scaling overhead"): whether moving `job` from
// `current` to `next` is worth a checkpoint-restart stall of `stall_s`
// seconds. False only when both allocations are active and differ, both
// speeds are positive, and the estimated completion-time saving
// Q/f(current) - Q/f(next) is below the stall; a NaN saving moves.
bool WorthRescaling(const SchedJob& job, const Allocation& current,
                    const Allocation& next, double stall_s);

class SpeedSurfaceSet;

class Allocator {
 public:
  virtual ~Allocator() = default;

  // Decides (p_j, w_j) for every job within `capacity`. Returns one entry
  // per input job, in input order (the PlaceJobs contract); a job that gets
  // nothing gets Allocation{}. Implementations must be deterministic given
  // identical inputs. Builds a fresh set of memoized speed surfaces for the
  // round (defined in speed_surface.cc).
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity) const;

  // Same decision, but every speed probe goes through `surfaces` (never
  // null). Callers that run several allocations over the same jobs — what-if
  // admission, ablations — pass one set so each (p, w) point is evaluated at
  // most once across all of them.
  virtual std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                           const Resources& capacity,
                                           SpeedSurfaceSet* surfaces) const = 0;

  virtual const char* name() const = 0;
};

}  // namespace optimus

#endif  // SRC_SCHED_SCHEDULER_H_
