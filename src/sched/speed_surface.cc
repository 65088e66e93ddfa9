#include "src/sched/speed_surface.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace optimus {

SpeedSurface::SpeedSurface(SpeedEstimate speed, int max_ps, int max_workers,
                           bool cache_enabled)
    : speed_(std::move(speed)),
      max_ps_(max_ps),
      max_workers_(max_workers),
      cache_enabled_(cache_enabled) {
  // max_ps == 0 is the all-reduce grid: the single p == 0 row.
  OPTIMUS_CHECK_GE(max_ps_, 0);
  OPTIMUS_CHECK_GE(max_workers_, 1);
}

double SpeedSurface::Speed(int p, int w) {
  ++probes_;
  const int min_p = max_ps_ == 0 ? 0 : 1;
  if (!cache_enabled_ || p < min_p || p > std::max(max_ps_, min_p) || w < 1 ||
      w > max_workers_) {
    ++evals_;
    return speed_(p, w);
  }
  if (grid_.empty()) {
    grid_.assign(GridSize(), std::numeric_limits<double>::quiet_NaN());
  }
  const size_t idx = static_cast<size_t>(p - min_p) * max_workers_ + (w - 1);
  double& cell = grid_[idx];
  if (std::isnan(cell)) {
    ++evals_;
    cell = speed_(p, w);
    if (speculating_ && journal_) {
      speculated_.push_back(idx);
    }
  }
  return cell;
}

void SpeedSurface::BeginSpeculation() {
  OPTIMUS_CHECK(!speculating_);
  speculating_ = true;
  probes_before_ = probes_;
  evals_before_ = evals_;
  // A surface with no point evaluated yet rolls back by emptying its grid,
  // so only one that already holds points journals the new ones.
  journal_ = !grid_.empty();
}

void SpeedSurface::EndSpeculation(bool keep) {
  OPTIMUS_CHECK(speculating_);
  speculating_ = false;
  if (!keep) {
    if (!journal_) {
      grid_.clear();
    }
    for (const size_t idx : speculated_) {
      grid_[idx] = std::numeric_limits<double>::quiet_NaN();
    }
    probes_ = probes_before_;
    evals_ = evals_before_;
  }
  speculated_.clear();
}

size_t SpeedSurfaceSet::EstimateHash::operator()(const EstimateKey& key) const {
  uint64_t h = key.speed.Hash() * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<uint64_t>(static_cast<uint32_t>(key.max_ps)) << 32) |
       static_cast<uint32_t>(key.max_workers);
  return static_cast<size_t>(h ^ (h >> 29));
}

SpeedSurface* SpeedSurfaceSet::Surface(const SchedJob& job) {
  const auto [it, added] = by_job_.try_emplace(job.job_id, nullptr);
  if (!added) {
    return it->second;
  }
  SpeedSurface*& shared = by_estimate_[EstimateKey{job.speed, job.max_ps, job.max_workers}];
  if (shared == nullptr) {
    shared = &surfaces_.emplace_back(job.speed, job.max_ps, job.max_workers, cache_enabled_);
  }
  it->second = shared;
  return shared;
}

double SpeedSurfaceSet::Speed(const SchedJob& job, int p, int w) {
  if (!job.speed.memoized()) {
    ++inline_evals_;
    return job.speed(p, w);
  }
  return Surface(job)->Speed(p, w);
}

void SpeedSurfaceSet::Retire(const SchedJob& job) {
  const auto it = by_job_.find(job.job_id);
  if (it == by_job_.end()) {
    return;
  }
  SpeedSurface* surface = it->second;
  by_job_.erase(it);
  const auto shared = by_estimate_.find(EstimateKey{job.speed, job.max_ps, job.max_workers});
  if (shared != by_estimate_.end() && shared->second == surface) {
    by_estimate_.erase(shared);
  }
  surface->grid_ = std::vector<double>();
}

void SpeedSurfaceSet::Lend(int job_id, SpeedSurface* surface) {
  OPTIMUS_CHECK(surface != nullptr);
  const bool added = by_job_.try_emplace(job_id, surface).second;
  OPTIMUS_CHECK(added) << "job " << job_id << " already has a surface";
}

void SpeedSurfaceSet::Unlend(int job_id) { by_job_.erase(job_id); }

int64_t SpeedSurfaceSet::probes() const {
  int64_t total = inline_evals_;
  for (const SpeedSurface& s : surfaces_) {
    total += s.probes();
  }
  return total;
}

int64_t SpeedSurfaceSet::evals() const {
  int64_t total = inline_evals_;
  for (const SpeedSurface& s : surfaces_) {
    total += s.evals();
  }
  return total;
}

double SpeedSurfaceSet::hit_rate() const {
  const int64_t p = probes();
  if (p == 0) {
    return 0.0;
  }
  return static_cast<double>(p - evals()) / static_cast<double>(p);
}

std::vector<Allocation> Allocator::Allocate(const std::vector<SchedJob>& jobs,
                                            const Resources& capacity) const {
  SpeedSurfaceSet surfaces;
  return Allocate(jobs, capacity, &surfaces);
}

}  // namespace optimus
