// Straggler injection and handling (§5.2).
//
// Stragglers arise from resource contention and unbalanced workloads. The
// injector randomly slows a job's slowest worker; the handler implements the
// paper's policy: a worker running below a threshold fraction of the median
// speed is replaced by relaunching it, which costs a short stall but restores
// full speed.

#ifndef SRC_CLUSTER_STRAGGLER_H_
#define SRC_CLUSTER_STRAGGLER_H_

#include "src/cluster/job.h"
#include "src/common/rng.h"

namespace optimus {

// Detection threshold: a worker strictly below this fraction of the median
// speed is declared a straggler (the paper uses half the median).
inline constexpr double kStragglerDetectThreshold = 0.5;
// Stall charged to the job when a straggler is replaced (launch a new worker
// container and hand over the data shard).
inline constexpr double kStragglerReplaceDelayS = 30.0;

struct StragglerConfig {
  // Probability, per scheduling interval and per job, that one of its workers
  // becomes a straggler. 0 disables injection.
  double injection_prob_per_interval = 0.0;
  // Injected slow factor range (fraction of normal speed). The range
  // deliberately straddles kStragglerDetectThreshold: injected factors in
  // [kStragglerDetectThreshold, slow_factor_hi) — e.g. a worker at 0.6 of
  // the median — are "mild" stragglers the paper's policy does NOT replace;
  // they ride until natural recovery. Only factors strictly below the
  // threshold trigger replacement, and a worker at exactly half the median is
  // left in place (detection is a strict `<` comparison). Pinned by
  // StragglerBoundaryTest in tests/fault_test.cc.
  double slow_factor_lo = 0.3;
  double slow_factor_hi = 0.7;
  // Probability per interval that an unhandled straggler recovers on its own
  // (the underlying contention is transient).
  double natural_recovery_prob = 0.35;
};

class StragglerModel {
 public:
  // `handling`: whether the scheduler replaces detected stragglers (Optimus
  // does; a baseline without §5.2 leaves them in place). The policy row
  // decides it (PolicyTraits::straggler_handling).
  StragglerModel(StragglerConfig config, bool handling)
      : config_(config), handling_(handling) {}

  // Called once per scheduling interval per running job: possibly injects a
  // straggler (slowing the job's slowest worker), then applies detection /
  // replacement. Returns true when a replacement happened this interval.
  bool Step(Job* job, Rng* rng);

  int64_t injections() const { return injections_; }
  int64_t replacements() const { return replacements_; }

 private:
  StragglerConfig config_;
  bool handling_;
  int64_t injections_ = 0;
  int64_t replacements_ = 0;
};

}  // namespace optimus

#endif  // SRC_CLUSTER_STRAGGLER_H_
