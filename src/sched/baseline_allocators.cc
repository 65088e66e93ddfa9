#include "src/sched/baseline_allocators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "src/common/logging.h"
#include "src/sched/speed_surface.h"

namespace optimus {

namespace {

// Tetris and FIFO stop giving a job units once an extra unit improves its
// estimated speed by less than this fraction (the speed-efficiency knee);
// keeps the SRTF winner (or the head of the FIFO queue) from hogging the whole
// cluster for negligible gain.
constexpr double kSpeedupKnee = 0.04;

// One DRF/Tetris allocation unit for a job: 1 PS + 1 worker for
// parameter-server jobs, a single worker for all-reduce jobs (max_ps == 0:
// no PS tasks exist, so a unit is just a worker).
Resources UnitDemand(const SchedJob& job) {
  return job.max_ps > 0 ? job.worker_demand + job.ps_demand : job.worker_demand;
}

int MaxUnits(const SchedJob& job) {
  return job.max_ps > 0 ? std::min(job.max_ps, job.max_workers) : job.max_workers;
}

// u units, shaped for the job's communication mode.
Allocation UnitsAllocation(const SchedJob& job, int u) {
  return {job.max_ps > 0 ? u : 0, u};
}

// One allocation per job, in job order, from its unit count.
std::vector<Allocation> UnitsAllocations(const std::vector<SchedJob>& jobs,
                                         const std::vector<int>& units) {
  std::vector<Allocation> result(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    result[i] = UnitsAllocation(jobs[i], units[i]);
  }
  return result;
}

// Estimated speed at u units (the p == 0 row for all-reduce jobs).
double UnitSpeed(SpeedSurface* surface, const SchedJob& job, int u) {
  return surface->Speed(job.max_ps > 0 ? u : 0, u);
}

}  // namespace

std::vector<Allocation> DrfAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                               const Resources& capacity,
                                               SpeedSurfaceSet* /*surfaces*/) const {
  std::vector<int> units(jobs.size(), 0);
  std::vector<bool> saturated(jobs.size(), false);
  Resources used;

  // Progressive filling on dominant share. Each entry is (share, job index);
  // the smallest share is served next.
  using Entry = std::pair<double, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (size_t i = 0; i < jobs.size(); ++i) {
    heap.push({0.0, i});
  }

  while (!heap.empty()) {
    const auto [share, i] = heap.top();
    heap.pop();
    if (saturated[i]) {
      continue;
    }
    if (units[i] >= MaxUnits(jobs[i])) {
      saturated[i] = true;
      continue;
    }
    const Resources unit = UnitDemand(jobs[i]);
    if (!capacity.Fits(used + unit)) {
      saturated[i] = true;  // this job's unit no longer fits; others may
      continue;
    }
    used += unit;
    ++units[i];
    const Resources total = unit * units[i];
    heap.push({total.DominantShare(capacity), i});
  }

  return UnitsAllocations(jobs, units);
}

std::vector<Allocation> TetrisAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                                  const Resources& capacity,
                                                  SpeedSurfaceSet* surfaces) const {
  OPTIMUS_CHECK(surfaces != nullptr);
  if (jobs.empty()) {
    return {};
  }
  std::vector<SpeedSurface*> surf;
  surf.reserve(jobs.size());
  for (const SchedJob& job : jobs) {
    surf.push_back(surfaces->Surface(job));
  }

  // Score jobs once: shorter remaining time and smaller unit footprint first.
  std::vector<double> duration(jobs.size());
  std::vector<double> footprint(jobs.size());
  double max_duration = 0.0;
  double max_footprint = 0.0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const double f = UnitSpeed(surf[i], jobs[i], 1);
    duration[i] = f > 0.0 ? jobs[i].remaining_epochs / f
                          : std::numeric_limits<double>::infinity();
    footprint[i] = UnitDemand(jobs[i]).DominantShare(capacity);
    if (std::isfinite(duration[i])) {
      max_duration = std::max(max_duration, duration[i]);
    }
    max_footprint = std::max(max_footprint, footprint[i]);
  }

  std::vector<size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  auto score = [&](size_t i) {
    // Higher is better: short jobs (SRTF) and packing-friendly (small) jobs.
    const double srtf =
        std::isfinite(duration[i]) && max_duration > 0.0
            ? 1.0 - duration[i] / max_duration
            : 0.0;
    const double packing =
        max_footprint > 0.0 ? 1.0 - footprint[i] / max_footprint : 0.0;
    return options_.srtf_weight * srtf + (1.0 - options_.srtf_weight) * packing;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return score(a) > score(b); });

  // Serve jobs strictly in score order (short / packable jobs first, as in
  // Tetris's SRTF-weighted heuristic): each job takes units until its
  // estimated speed stops improving meaningfully (Tetris is given Optimus's
  // estimator). Jobs at the back of the queue can receive nothing this
  // interval — Tetris offers no fairness floor.
  Resources used;
  std::vector<int> units(jobs.size(), 0);
  for (size_t i : order) {
    const SchedJob& job = jobs[i];
    const Resources unit = UnitDemand(job);
    while (units[i] < MaxUnits(job) && capacity.Fits(used + unit)) {
      const int u = units[i];
      if (u >= 1) {
        const double f_now = UnitSpeed(surf[i], job, u);
        const double f_next = UnitSpeed(surf[i], job, u + 1);
        if (f_next <= f_now * (1.0 + kSpeedupKnee)) {
          break;  // past the speed-efficiency knee
        }
      }
      used += unit;
      ++units[i];
    }
  }

  // Any remaining capacity goes round-robin to jobs that can still benefit
  // (including jobs the SRTF pass left empty-handed), keeping the allocator
  // work-conserving like the deployed system.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i : order) {
      const SchedJob& job = jobs[i];
      const Resources unit = UnitDemand(job);
      if (units[i] < MaxUnits(job) && capacity.Fits(used + unit)) {
        if (units[i] >= 1) {
          const double f_now = UnitSpeed(surf[i], job, units[i]);
          const double f_next = UnitSpeed(surf[i], job, units[i] + 1);
          if (f_next <= f_now * (1.0 + kSpeedupKnee)) {
            continue;
          }
        }
        used += unit;
        ++units[i];
        progress = true;
      }
    }
  }

  return UnitsAllocations(jobs, units);
}

std::vector<Allocation> FifoAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                                const Resources& capacity,
                                                SpeedSurfaceSet* surfaces) const {
  OPTIMUS_CHECK(surfaces != nullptr);
  std::vector<Allocation> result;
  result.reserve(jobs.size());
  Resources used;
  // Input order is arrival order; fill each job to its knee in turn.
  for (const SchedJob& job : jobs) {
    SpeedSurface* surface = surfaces->Surface(job);
    const Resources unit = UnitDemand(job);
    int units = 0;
    while (units < MaxUnits(job) && capacity.Fits(used + unit)) {
      if (units >= 1) {
        const double f_now = UnitSpeed(surface, job, units);
        const double f_next = UnitSpeed(surface, job, units + 1);
        if (f_next <= f_now * (1.0 + kSpeedupKnee)) {
          break;
        }
      }
      used += unit;
      ++units;
    }
    result.push_back(UnitsAllocation(job, units));
  }
  return result;
}

}  // namespace optimus
