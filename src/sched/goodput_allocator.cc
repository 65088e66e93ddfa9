#include "src/sched/goodput_allocator.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_map>

#include "src/sched/speed_surface.h"

namespace optimus {

namespace {

bool BatchAdaptive(const SchedJob& job) {
  return job.mode == TrainingMode::kSync && job.speed.batch_scalable() &&
         job.batch_ref > 0 && job.batch_min > 0 && job.batch_max > job.batch_min;
}

// What a job's composite g(p, w) depends on. Jobs with equal keys share one
// composite context, hence one composite surface.
struct CompositeKey {
  SpeedEstimate inner;
  int batch_min = 0;
  int batch_max = 0;
  int batch_ref = 0;
  double grad_noise_scale = 0.0;
  bool operator==(const CompositeKey&) const = default;
};

struct CompositeKeyHash {
  size_t operator()(const CompositeKey& key) const {
    size_t h = key.inner.Hash();
    for (const size_t v : {static_cast<size_t>(key.batch_min),
                           static_cast<size_t>(key.batch_max),
                           static_cast<size_t>(key.batch_ref),
                           std::hash<double>{}(key.grad_noise_scale)}) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

// The context of a kCustom composite estimate: the best effective progress
// over the job's batch rungs.
struct Composite {
  CompositeKey key;
  std::vector<int> rungs;

  static double Speed(const void* ctx, int p, int w) {
    const Composite& c = *static_cast<const Composite*>(ctx);
    double best = 0.0;
    for (const int b : c.rungs) {
      const double s = c.key.inner.BatchSpeed(p, w, b) *
                       BatchProgressFactor(c.key.grad_noise_scale, c.key.batch_ref, b);
      if (s > best) {
        best = s;
      }
    }
    return best;
  }
};

}  // namespace

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
  // The composite contexts live for this call; the composite surfaces are
  // retired before they die.
  std::deque<Composite> composites;
  std::unordered_map<CompositeKey, const Composite*, CompositeKeyHash> by_key;
  std::vector<SchedJob> inner_jobs = jobs;
  std::vector<const Composite*> composite_of(jobs.size(), nullptr);
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::vector<int> rungs = BatchRungs(jobs[i]);
    if (rungs.size() < 2) {
      continue;
    }
    const CompositeKey key{jobs[i].speed, jobs[i].batch_min, jobs[i].batch_max,
                           jobs[i].batch_ref, jobs[i].grad_noise_scale};
    const Composite*& composite = by_key[key];
    if (composite == nullptr) {
      composite = &composites.emplace_back(Composite{key, std::move(rungs)});
    }
    composite_of[i] = composite;
    // Composite jobs get a *distinct* identity: a derived negative job id
    // keeps the composite surface out of the per-job memo slot of the real
    // job, so a surface set shared with plain probes of the same job never
    // mixes the two.
    SchedJob& sj = inner_jobs[i];
    sj.job_id = -jobs[i].job_id - 1;
    sj.speed = SpeedEstimate::Custom(&Composite::Speed, composite);
  }

  std::vector<Allocation> result = inner_.Allocate(inner_jobs, capacity, surfaces);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (composite_of[i] != nullptr) {
      surfaces->Retire(inner_jobs[i]);
    }
  }

  // Pick each adaptive job's batch: the argmax rung at its final (p, w),
  // ties to the smallest batch. A handful of direct BatchSpeed evaluations
  // per job — pure functions of (p, w, b), so thread-count independent.
  for (size_t i = 0; i < jobs.size(); ++i) {
    Allocation& alloc = result[i];
    if (composite_of[i] == nullptr || !ActiveAllocation(alloc, jobs[i].comm)) {
      continue;
    }
    const int p = alloc.num_ps;
    const int w = alloc.num_workers;
    int best_b = jobs[i].batch_ref;
    double best_s = 0.0;
    for (int b : composite_of[i]->rungs) {
      const double s = jobs[i].speed.BatchSpeed(p, w, b) *
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
