// Pollux-style goodput allocation: co-adapting global batch with (p, w).
//
// Goodput (Pollux, OSDI '20) is system throughput times statistical
// efficiency. Each batch-adaptive job exposes a physical speed estimate
// f(p, w, b) (SpeedEstimate::BatchSpeed) over an admissible batch range
// [batch_min, batch_max] plus a gradient-noise-scale parameter; the
// allocator ranks (p, w) points by the *best* effective progress over a
// small geometric ladder of candidate batches ("rungs"):
//
//   g(p, w) = max_b  f(p, w, b) * BatchProgressFactor(phi, M0, b)
//
// and then runs Optimus's marginal-gain greedy (§4.1) over g. Each composite
// g is a kCustom estimate over a context this allocator owns for the call,
// one context per distinct (estimate, batch range), so the composite
// surfaces memoize like any other speed surface (one shared grid per group of
// equal jobs) and the round cost matches plain Optimus times the rung count.
// After the greedy settles, each adaptive job's batch is the argmax rung at
// its final (p, w) (ties break to the smallest batch), returned as the
// advisory Allocation::global_batch.
//
// Jobs without batch adaptivity (async jobs, batch_min >= batch_max, or an
// estimate that is not batch_scalable()) pass through untouched, so on a workload with fixed
// batches this allocator's decisions are identical to OptimusAllocator's.

#ifndef SRC_SCHED_GOODPUT_ALLOCATOR_H_
#define SRC_SCHED_GOODPUT_ALLOCATOR_H_

#include <vector>

#include "src/sched/optimus_allocator.h"
#include "src/sched/scheduler.h"

namespace optimus {

// Cap on the batch ladder size (geometric doubling from batch_min, always
// including batch_max and the reference batch).
inline constexpr int kMaxBatchRungs = 8;

class GoodputAllocator : public Allocator {
 public:
  // When `stats` is non-null, the inner greedy accumulates per-round counters
  // there.
  explicit GoodputAllocator(OptimusAllocRoundStats* stats = nullptr)
      : inner_(stats) {}

  using Allocator::Allocate;
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;

  const char* name() const override { return "goodput"; }

  // The candidate-batch ladder for `job`: geometric doubling from batch_min,
  // always including batch_max and the in-range reference batch, ascending
  // and deduplicated. Empty when the job is not batch-adaptive. Exposed for
  // tests.
  static std::vector<int> BatchRungs(const SchedJob& job,
                                     int max_rungs = kMaxBatchRungs);

 private:
  OptimusAllocator inner_;
};

}  // namespace optimus

#endif  // SRC_SCHED_GOODPUT_ALLOCATOR_H_
