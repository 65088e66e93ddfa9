// Synergy-style resource-sensitive allocation.
//
// Synergy (OSDI '22) observes that DL jobs are not uniformly sensitive to
// every resource: many models barely slow down when given less CPU or memory
// than the GPU-proportional default. Each job carries a per-resource
// sensitivity profile (SchedJob::{cpu,mem}_sensitivity in [0, 1]); this
// allocator deflates the CPU and memory components of the job's per-task
// demands toward a provisioning floor where the profile says the slope is
// flat:
//
//   effective_demand = demand * (floor + (1 - floor) * sensitivity)
//
// and then runs Optimus's marginal-gain greedy on the deflated demands. Both
// the capacity accounting and the Eqn-9 dominant-share denominator see the
// deflated vectors, so insensitive jobs look cheaper and the cluster packs
// more aggressively where it is safe. Placement still arbitrates with the
// *true* demands (shrink-to-fit), so the deflation can never produce an
// infeasible placement — it only reorders who gets capacity first.
//
// Jobs with the default fully-sensitive profile (1.0 / 1.0) are untouched;
// on such a workload this allocator's decisions are identical to
// OptimusAllocator's.

#ifndef SRC_SCHED_SYNERGY_ALLOCATOR_H_
#define SRC_SCHED_SYNERGY_ALLOCATOR_H_

#include <vector>

#include "src/sched/optimus_allocator.h"
#include "src/sched/scheduler.h"

namespace optimus {

class SynergyAllocator : public Allocator {
 public:
  // When `stats` is non-null, the inner greedy accumulates per-round counters
  // there.
  explicit SynergyAllocator(OptimusAllocRoundStats* stats = nullptr)
      : inner_(stats) {}

  using Allocator::Allocate;
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;

  const char* name() const override { return "synergy"; }

  // The deflated demand vector for one task, with a provisioning floor of
  // 0.25 of the CPU/memory demand. Exposed for tests.
  static Resources DeflateDemand(const Resources& demand, double cpu_sensitivity,
                                 double mem_sensitivity);

 private:
  OptimusAllocator inner_;
};

}  // namespace optimus

#endif  // SRC_SCHED_SYNERGY_ALLOCATOR_H_
