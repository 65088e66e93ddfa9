// Exhaustive reference allocator.
//
// The allocation problem (Eqns 5-8) is a non-convex integer program; Optimus
// solves it with the marginal-gain greedy of §4.1. For small instances the
// optimum can be found by enumeration, which gives us a yardstick: how far
// from optimal does the greedy land? Used by tests and by
// bench_ext_optimality_gap; exponential in the number of jobs, so it guards
// against instances beyond a configurable search budget.

#ifndef SRC_SCHED_EXHAUSTIVE_ALLOCATOR_H_
#define SRC_SCHED_EXHAUSTIVE_ALLOCATOR_H_

#include "src/sched/scheduler.h"

namespace optimus {

struct ExhaustiveAllocatorOptions {
  // Abort (fatally) if the search space exceeds this many states — the
  // enumerator exists for validation, not production.
  int64_t max_states = 200000000;
};

class ExhaustiveAllocator : public Allocator {
 public:
  explicit ExhaustiveAllocator(ExhaustiveAllocatorOptions options = {})
      : options_(options) {}

  // Minimizes sum_j Q_j / f_j(p_j, w_j) over all feasible integer allocations
  // (including giving a job nothing, treated as contributing no term, to keep
  // the objective finite when capacity cannot seat everyone).
  using Allocator::Allocate;
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;

  const char* name() const override { return "exhaustive"; }

  // Objective value of an allocation (one entry per job, in job order) under
  // the jobs' own estimates: total estimated completion time, counting only
  // active jobs.
  static double Objective(const std::vector<SchedJob>& jobs,
                          const std::vector<Allocation>& alloc);

 private:
  ExhaustiveAllocatorOptions options_;
};

}  // namespace optimus

#endif  // SRC_SCHED_EXHAUSTIVE_ALLOCATOR_H_
