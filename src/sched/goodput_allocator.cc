#include "src/sched/goodput_allocator.h"

#include <algorithm>
#include <cstring>

namespace optimus {

namespace {

// Boost-style hash mixing for deriving the composite surface signature.
uint64_t MixBits(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool BatchAdaptive(const SchedJob& job) {
  return job.mode == TrainingMode::kSync && job.batch_speed != nullptr &&
         job.batch_ref > 0 && job.batch_min > 0 && job.batch_max > job.batch_min;
}

}  // namespace

GoodputAllocator::GoodputAllocator(GoodputAllocatorOptions options)
    : options_(options) {
  OptimusAllocatorOptions inner;
  inner.stats = options_.stats;
  inner_ = OptimusAllocator(inner);
}

std::vector<int> GoodputAllocator::BatchRungs(const SchedJob& job, int max_rungs) {
  if (!BatchAdaptive(job) || max_rungs < 2) {
    return {};
  }
  std::vector<int> rungs;
  for (int64_t b = job.batch_min;
       b < job.batch_max && static_cast<int>(rungs.size()) < max_rungs - 1;
       b *= 2) {
    rungs.push_back(static_cast<int>(b));
  }
  rungs.push_back(job.batch_max);
  if (job.batch_ref >= job.batch_min && job.batch_ref <= job.batch_max) {
    rungs.push_back(job.batch_ref);
  }
  std::sort(rungs.begin(), rungs.end());
  rungs.erase(std::unique(rungs.begin(), rungs.end()), rungs.end());
  return rungs;
}

std::vector<Allocation> GoodputAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                                   const Resources& capacity,
                                                   SpeedSurfaceSet* surfaces) const {
  std::vector<SchedJob> inner_jobs = jobs;
  std::vector<std::vector<int>> rungs_by(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::vector<int> rungs = BatchRungs(jobs[i], options_.max_rungs);
    if (rungs.size() < 2) {
      continue;
    }
    SchedJob& sj = inner_jobs[i];
    // Composite jobs get a *distinct* identity: a derived negative job id and
    // a mixed signature. The derived id keeps the composite surface out of
    // the per-job memo slot of the real job, so a surface set shared with
    // plain probes of the same job never mixes the two; the mixed signature
    // still lets jobs with identical models and batch ranges share one
    // composite grid.
    sj.job_id = -jobs[i].job_id - 1;
    if (sj.speed_signature != 0) {
      uint64_t h = MixBits(sj.speed_signature, 0x600dbadceULL);
      h = MixBits(h, static_cast<uint64_t>(sj.batch_min));
      h = MixBits(h, static_cast<uint64_t>(sj.batch_max));
      h = MixBits(h, static_cast<uint64_t>(sj.batch_ref));
      h = MixBits(h, DoubleBits(sj.grad_noise_scale));
      sj.speed_signature = h;
    }
    const BatchSpeedEstimate batch_speed = jobs[i].batch_speed;
    const double phi = jobs[i].grad_noise_scale;
    const double ref = jobs[i].batch_ref;
    sj.speed = [batch_speed, phi, ref, rungs](int p, int w) {
      double best = 0.0;
      for (int b : rungs) {
        const double s = batch_speed(p, w, b) * BatchProgressFactor(phi, ref, b);
        if (s > best) {
          best = s;
        }
      }
      return best;
    };
    rungs_by[i] = std::move(rungs);
  }

  std::vector<Allocation> result = inner_.Allocate(inner_jobs, capacity, surfaces);

  // Pick each adaptive job's batch: the argmax rung at its final (p, w),
  // ties to the smallest batch. A handful of direct batch_speed evaluations
  // per job — pure functions of (p, w, b), so thread-count independent.
  for (size_t i = 0; i < jobs.size(); ++i) {
    Allocation& alloc = result[i];
    if (rungs_by[i].empty() || !ActiveAllocation(alloc, jobs[i].comm)) {
      continue;
    }
    const int p = alloc.num_ps;
    const int w = alloc.num_workers;
    int best_b = jobs[i].batch_ref;
    double best_s = 0.0;
    for (int b : rungs_by[i]) {
      const double s = jobs[i].batch_speed(p, w, b) *
                       BatchProgressFactor(jobs[i].grad_noise_scale,
                                           jobs[i].batch_ref, b);
      if (s > best_s) {
        best_s = s;
        best_b = b;
      }
    }
    alloc.global_batch = best_b;
  }
  return result;
}

}  // namespace optimus
