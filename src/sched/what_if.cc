#include "src/sched/what_if.h"

#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/sched/speed_surface.h"

namespace optimus {

namespace {

// Estimated completion times for every job under an allocation (entry i is
// job i's), probing through the round's shared speed surfaces.
std::map<int, double> CompletionTimes(const std::vector<SchedJob>& jobs,
                                      const std::vector<Allocation>& alloc,
                                      SpeedSurfaceSet* surfaces) {
  std::map<int, double> out;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const SchedJob& job = jobs[i];
    double t = std::numeric_limits<double>::infinity();
    if (ActiveAllocation(alloc[i], job.comm)) {
      const double f = surfaces->Surface(job)->Speed(alloc[i].num_ps, alloc[i].num_workers);
      if (f > 0.0) {
        t = job.remaining_epochs / f;
      }
    }
    out[job.job_id] = t;
  }
  return out;
}

}  // namespace

WhatIfResult EvaluateAdmission(const Allocator& allocator,
                               const std::vector<SchedJob>& existing,
                               const SchedJob& candidate, const Resources& capacity) {
  for (const SchedJob& job : existing) {
    OPTIMUS_CHECK_NE(job.job_id, candidate.job_id)
        << "candidate job id collides with an existing job";
  }

  WhatIfResult result;

  // One memoized surface per job serves the whole analysis: the baseline
  // round, the admitted round, and the completion-time readouts re-probe the
  // same (p, w) points, so each is evaluated at most once.
  SpeedSurfaceSet surfaces;

  // Baseline: the cluster without the candidate.
  const std::vector<Allocation> baseline = allocator.Allocate(existing, capacity, &surfaces);
  result.baseline_completion_s = CompletionTimes(existing, baseline, &surfaces);

  // Scenario: the candidate competes with everyone else.
  std::vector<SchedJob> with_job = existing;
  with_job.push_back(candidate);
  // The candidate is the last input, so its allocation is the last entry.
  const std::vector<Allocation> admitted = allocator.Allocate(with_job, capacity, &surfaces);
  result.with_job_completion_s = CompletionTimes(existing, admitted, &surfaces);

  const Allocation& cand = admitted.back();
  if (ActiveAllocation(cand, candidate.comm)) {
    result.admitted = true;
    result.new_job_alloc = cand;
    const double f = surfaces.Surface(candidate)->Speed(cand.num_ps, cand.num_workers);
    result.new_job_completion_s =
        f > 0.0 ? candidate.remaining_epochs / f
                : std::numeric_limits<double>::infinity();
  }

  for (const SchedJob& job : existing) {
    const double before = result.baseline_completion_s.at(job.job_id);
    const double after = result.with_job_completion_s.at(job.job_id);
    if (std::isfinite(before) && std::isfinite(after)) {
      result.total_slowdown_s += std::max(0.0, after - before);
    }
  }
  return result;
}

}  // namespace optimus
