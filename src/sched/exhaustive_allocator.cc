#include "src/sched/exhaustive_allocator.h"

#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/sched/speed_surface.h"

namespace optimus {

namespace {

// A job left without resources is not free: its work remains queued. Charge
// it as if it will later run at its minimal configuration, scaled by this
// deferral penalty, so "give nothing" only wins when capacity truly cannot
// seat the job.
constexpr double kDeferralPenalty = 3.0;

struct SearchState {
  const std::vector<SchedJob>* jobs = nullptr;
  std::vector<SpeedSurface*> surfaces;
  Resources capacity;
  int64_t states_visited = 0;
  int64_t max_states = 0;
  double best_objective = std::numeric_limits<double>::infinity();
  std::vector<Allocation> current;
  std::vector<Allocation> best;
};

double OptionCost(const SchedJob& job, SpeedSurface* surface, const Allocation& alloc) {
  if (!ActiveAllocation(alloc, job.comm)) {
    const double f_min = surface->Speed(job.max_ps > 0 ? 1 : 0, 1);
    if (f_min <= 0.0 || job.remaining_epochs <= 0.0) {
      return 0.0;
    }
    return kDeferralPenalty * job.remaining_epochs / f_min;
  }
  const double f = surface->Speed(alloc.num_ps, alloc.num_workers);
  if (f <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return job.remaining_epochs / f;
}

void Search(SearchState* state, size_t index, const Resources& used, double cost) {
  if (cost >= state->best_objective) {
    return;  // objective only grows along a branch
  }
  if (index == state->jobs->size()) {
    state->best_objective = cost;
    state->best = state->current;
    return;
  }
  ++state->states_visited;
  OPTIMUS_CHECK_LE(state->states_visited, state->max_states)
      << "instance too large for exhaustive search";

  const SchedJob& job = (*state->jobs)[index];
  // Enumerate all feasible allocations for this job, plus "nothing". An
  // all-reduce job (max_ps == 0) enumerates worker counts along its single
  // p == 0 row.
  const bool wants_ps = job.max_ps > 0;
  for (int p = 0; p <= job.max_ps; ++p) {
    const int w_limit = (p == 0 && wants_ps) ? 0 : job.max_workers;
    for (int w = ((p == 0 && wants_ps) ? 0 : 1); w <= w_limit; ++w) {
      const Allocation alloc{p, w};
      const Resources next_used = used + AllocationDemand(job, alloc);
      if (!state->capacity.Fits(next_used)) {
        continue;
      }
      state->current[index] = alloc;
      Search(state, index + 1, next_used,
             cost + OptionCost(job, state->surfaces[index], alloc));
    }
    if (p == 0) {
      // The "nothing" option (w loop did not run).
      state->current[index] = Allocation{};
      Search(state, index + 1, used,
             cost + OptionCost(job, state->surfaces[index], Allocation{}));
    }
  }
}

}  // namespace

double ExhaustiveAllocator::Objective(const std::vector<SchedJob>& jobs,
                                      const std::vector<Allocation>& alloc) {
  OPTIMUS_CHECK_EQ(alloc.size(), jobs.size());
  SpeedSurfaceSet surfaces;
  double total = 0.0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    total += OptionCost(jobs[i], surfaces.Surface(jobs[i]), alloc[i]);
  }
  return total;
}

std::vector<Allocation> ExhaustiveAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                                      const Resources& capacity,
                                                      SpeedSurfaceSet* surfaces) const {
  OPTIMUS_CHECK(surfaces != nullptr);
  SearchState state;
  state.jobs = &jobs;
  state.surfaces.reserve(jobs.size());
  for (const SchedJob& job : jobs) {
    state.surfaces.push_back(surfaces->Surface(job));
  }
  state.capacity = capacity;
  state.max_states = options_.max_states;
  state.current.assign(jobs.size(), Allocation{});
  state.best.assign(jobs.size(), Allocation{});

  Search(&state, 0, Resources(), 0.0);

  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!ActiveAllocation(state.best[i], jobs[i].comm)) {
      state.best[i] = Allocation{};
    }
  }
  return state.best;
}

}  // namespace optimus
