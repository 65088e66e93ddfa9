// What-if analysis for admission control and capacity planning.
//
// Cluster operators routinely ask "if this job arrived now, when would it
// finish, and how much would it slow everyone else down?". This module
// answers that question using the same machinery the scheduler itself uses:
// it runs the marginal-gain allocation with and without the hypothetical
// job against the current capacity and compares the estimated completion
// times.
//
// The allocation without the candidate is the same for every candidate, so
// an AdmissionBaseline computes it once and then evaluates any number of
// candidates against it. Each evaluation answers exactly what a fresh pair
// of allocations would:
//   - The candidate probes a private speed surface (or, for a closed-form
//     estimate, evaluates inline), never the baseline's set. Surfaces are
//     keyed by job id, and consecutive candidates may share an id while
//     describing different models.
//   - Under OptimusAllocator, when the baseline round was slack and the
//     candidate's seed plus solo path still fit with the allocator's slack
//     margin, the admitted round is the baseline plus that path
//     (OptimusAllocator::AppendToSlackRound). Only then is the second
//     allocation skipped.
//   - Otherwise (a binding round, or any other policy) the exact
//     Allocate(existing + {candidate}) runs on the baseline's surfaces.
// A baseline stays valid only while its inputs do: the simulator rebuilds it
// after every state mutation (Simulator::WhatIf).

#ifndef SRC_SCHED_WHAT_IF_H_
#define SRC_SCHED_WHAT_IF_H_

#include <vector>

#include "src/sched/optimus_allocator.h"
#include "src/sched/scheduler.h"
#include "src/sched/speed_surface.h"

namespace optimus {

struct WhatIfResult {
  // Whether the new job would receive any resources at all this interval.
  bool admitted = false;
  // Allocation and estimated completion time of the hypothetical job.
  Allocation new_job_alloc;
  double new_job_completion_s = 0.0;
  // Estimated completion time of each existing job before and after
  // admission: one entry per existing job, in input order (infinity when a
  // job holds no resources).
  std::vector<double> baseline_completion_s;
  std::vector<double> with_job_completion_s;
  // Aggregate slowdown of the existing jobs: sum of completion-time deltas
  // over jobs with finite estimates in both scenarios.
  double total_slowdown_s = 0.0;
};

// The cluster without the candidate: the existing jobs, the capacity, their
// memoized speed surfaces, and the baseline allocation with its completion
// times. Not copyable: the surface set indexes its surfaces by address.
class AdmissionBaseline {
 public:
  // Allocates `existing` under `capacity` with `allocator`, which must
  // outlive the baseline.
  AdmissionBaseline(const Allocator* allocator, std::vector<SchedJob> existing,
                    const Resources& capacity);
  AdmissionBaseline(const AdmissionBaseline&) = delete;
  AdmissionBaseline& operator=(const AdmissionBaseline&) = delete;

  // Whether `job_id` is an existing job's id; a candidate must not reuse one.
  bool HasJob(int job_id) const;

  // Evaluates admitting `candidate` alongside the existing jobs.
  WhatIfResult Evaluate(const SchedJob& candidate);

 private:
  const Allocator* allocator_;
  // allocator_ when it runs Optimus's greedy (the slack append applies),
  // else null.
  const OptimusAllocator* optimus_;
  // Holds the candidate as a last entry during a full admitted allocation.
  std::vector<SchedJob> existing_;
  Resources capacity_;
  SpeedSurfaceSet surfaces_;
  std::vector<Allocation> baseline_;
  std::vector<double> baseline_completion_s_;
  OptimusSlackRound round_;
};

// Evaluates admitting `candidate` alongside `existing` jobs under `capacity`,
// using `allocator` for both scenarios: one AdmissionBaseline, one
// candidate. The candidate's job_id must not collide with an existing id.
WhatIfResult EvaluateAdmission(const Allocator& allocator,
                               const std::vector<SchedJob>& existing,
                               const SchedJob& candidate, const Resources& capacity);

}  // namespace optimus

#endif  // SRC_SCHED_WHAT_IF_H_
