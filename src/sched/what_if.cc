#include "src/sched/what_if.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace optimus {

namespace {

// Estimated completion time of a job under `alloc`, reading f through
// `speed`; infinity when the job holds no resources or f is not positive.
template <typename SpeedAt>
double CompletionTime(const SchedJob& job, const Allocation& alloc, const SpeedAt& speed) {
  if (ActiveAllocation(alloc, job.comm)) {
    const double f = speed(alloc.num_ps, alloc.num_workers);
    if (f > 0.0) {
      return job.remaining_epochs / f;
    }
  }
  return std::numeric_limits<double>::infinity();
}

// Estimated completion times for every job under an allocation (entry i is
// job i's), read as the baseline's rounds read them.
std::vector<double> CompletionTimes(const std::vector<SchedJob>& jobs,
                                    const std::vector<Allocation>& alloc,
                                    SpeedSurfaceSet* surfaces) {
  std::vector<double> out(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    out[i] = CompletionTime(jobs[i], alloc[i],
                            [&](int p, int w) { return surfaces->Speed(jobs[i], p, w); });
  }
  return out;
}

}  // namespace

AdmissionBaseline::AdmissionBaseline(const Allocator* allocator,
                                     std::vector<SchedJob> existing,
                                     const Resources& capacity)
    : allocator_(allocator),
      optimus_(dynamic_cast<const OptimusAllocator*>(allocator)),
      existing_(std::move(existing)),
      capacity_(capacity) {
  OPTIMUS_CHECK(allocator_ != nullptr);
  existing_.reserve(existing_.size() + 1);  // room for a candidate
  // One memoized surface per job of a memoized estimate kind serves the
  // baseline round, every admitted round and every completion-time readout,
  // so each of its (p, w) points is evaluated at most once for the
  // baseline's lifetime. The closed-form kinds are evaluated inline.
  baseline_ = optimus_ != nullptr
                  ? optimus_->Allocate(existing_, capacity_, &surfaces_, &round_)
                  : allocator_->Allocate(existing_, capacity_, &surfaces_);
  baseline_completion_s_ = CompletionTimes(existing_, baseline_, &surfaces_);
}

bool AdmissionBaseline::HasJob(int job_id) const {
  for (const SchedJob& job : existing_) {
    if (job.job_id == job_id) {
      return true;
    }
  }
  return false;
}

WhatIfResult AdmissionBaseline::Evaluate(const SchedJob& candidate) {
  OPTIMUS_CHECK(!HasJob(candidate.job_id))
      << "candidate job id collides with an existing job";

  WhatIfResult result;
  result.baseline_completion_s = baseline_completion_s_;

  // A memoized candidate probes its private surface; a closed-form one is
  // evaluated inline.
  SpeedSurface surface(candidate.speed, candidate.max_ps, candidate.max_workers,
                       surfaces_.cache_enabled());
  SpeedSurface* cand_surface = candidate.speed.memoized() ? &surface : nullptr;
  Allocation cand;
  if (optimus_ != nullptr &&
      optimus_->AppendToSlackRound(existing_, round_, baseline_, candidate, cand_surface,
                                   capacity_, &cand)) {
    // The admitted round is the baseline plus the candidate's path: every
    // existing job keeps its baseline allocation and completion time.
    result.with_job_completion_s = baseline_completion_s_;
  } else {
    // Scenario: the candidate competes with everyone else. It is the last
    // input, so its allocation is the last entry.
    existing_.push_back(candidate);
    surfaces_.Lend(candidate.job_id, &surface);
    std::vector<Allocation> admitted = allocator_->Allocate(existing_, capacity_, &surfaces_);
    surfaces_.Unlend(candidate.job_id);
    existing_.pop_back();
    cand = admitted.back();
    admitted.pop_back();
    result.with_job_completion_s = CompletionTimes(existing_, admitted, &surfaces_);
  }

  if (ActiveAllocation(cand, candidate.comm)) {
    result.admitted = true;
    result.new_job_alloc = cand;
    result.new_job_completion_s = CompletionTime(candidate, cand, [&](int p, int w) {
      return cand_surface != nullptr ? cand_surface->Speed(p, w) : candidate.speed(p, w);
    });
  }

  for (size_t i = 0; i < existing_.size(); ++i) {
    const double before = result.baseline_completion_s[i];
    const double after = result.with_job_completion_s[i];
    if (std::isfinite(before) && std::isfinite(after)) {
      result.total_slowdown_s += std::max(0.0, after - before);
    }
  }
  return result;
}

WhatIfResult EvaluateAdmission(const Allocator& allocator,
                               const std::vector<SchedJob>& existing,
                               const SchedJob& candidate, const Resources& capacity) {
  return AdmissionBaseline(&allocator, existing, capacity).Evaluate(candidate);
}

}  // namespace optimus
