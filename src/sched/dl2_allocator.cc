#include "src/sched/dl2_allocator.h"

#include <algorithm>

#include "src/sched/speed_surface.h"

namespace optimus {

namespace {

constexpr double kSpeedEps = 1e-9;
constexpr double kShareEps = 1e-6;

double CompletionTime(double remaining_epochs, double speed) {
  return remaining_epochs / std::max(speed, kSpeedEps);
}

}  // namespace

Dl2Weights DefaultDl2Weights() {
  // optimus_train_policy --seed=42 --states=4000 (docs/POLICIES.md). The
  // trained policy leans on the completion-time reduction and the raw speed
  // gain; the NNLS fit zeroes the features that do not help it imitate the
  // Eqn-9 target.
  return Dl2Weights{0.452491452328211, 2.14627275400322, 45.0334267156831,
                    4.62754100153494e-05, 0.00472925292120949, 0};
}

std::array<double, kDl2NumFeatures> Dl2Features(double remaining_epochs,
                                                double f0, double f1,
                                                const Resources& unit_demand,
                                                const Resources& capacity,
                                                int num_ps, int num_workers) {
  const double t0 = CompletionTime(remaining_epochs, f0);
  const double t1 = CompletionTime(remaining_epochs, f1);
  std::array<double, kDl2NumFeatures> x = {};
  x[0] = 1.0;
  x[1] = std::max(0.0, t0 - t1) / (1.0 + t0);
  x[2] = std::max(0.0, f1 - f0);
  x[3] = 1.0 / (kShareEps + unit_demand.DominantShare(capacity));
  x[4] = 1.0 / (1.0 + remaining_epochs);
  x[5] = 1.0 / (1.0 + num_ps + num_workers);
  return x;
}

std::vector<Allocation> Dl2Allocator::Allocate(const std::vector<SchedJob>& jobs,
                                               const Resources& capacity,
                                               SpeedSurfaceSet* surfaces) const {
  std::vector<Allocation> result(jobs.size());
  Resources used;

  // Anti-starvation seed, in input (arrival) order: one worker, plus one
  // parameter server for PS-mode jobs. A seeded PS job with max_ps == 0 holds
  // (0, 1), which ActiveAllocation rejects, so seeding is tracked apart.
  std::vector<uint8_t> seeded(jobs.size(), 0);
  for (size_t i = 0; i < jobs.size(); ++i) {
    const SchedJob& job = jobs[i];
    Allocation seed;
    seed.num_workers = 1;
    seed.num_ps = (job.comm == CommMode::kAllReduce || job.max_ps <= 0) ? 0 : 1;
    const Resources d = AllocationDemand(job, seed);
    if (!capacity.Fits(used + d)) {
      continue;
    }
    used += d;
    result[i] = seed;
    seeded[i] = 1;
  }

  const Dl2Weights w = DefaultDl2Weights();
  while (true) {
    double best_score = 0.0;
    size_t best_index = jobs.size();
    bool best_is_worker = true;
    Allocation best_next;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (seeded[i] == 0) {
        continue;  // seed never fit; the job sits this round out
      }
      const SchedJob& job = jobs[i];
      const Allocation cur = result[i];
      SpeedSurface* surface = surfaces->Surface(job);
      const double f0 = surface->Speed(cur.num_ps, cur.num_workers);
      // Candidate kinds in fixed order: worker first, then parameter server.
      for (int kind = 0; kind < 2; ++kind) {
        const bool is_worker = kind == 0;
        if (is_worker) {
          if (cur.num_workers >= job.max_workers) {
            continue;
          }
        } else {
          if (job.comm == CommMode::kAllReduce || job.max_ps <= 0 ||
              cur.num_ps >= job.max_ps) {
            continue;
          }
        }
        const Resources& unit = is_worker ? job.worker_demand : job.ps_demand;
        if (!capacity.Fits(used + unit)) {
          continue;
        }
        Allocation next = cur;
        (is_worker ? next.num_workers : next.num_ps) += 1;
        const double f1 = surface->Speed(next.num_ps, next.num_workers);
        const std::array<double, kDl2NumFeatures> x =
            Dl2Features(job.remaining_epochs, f0, f1, unit, capacity,
                        cur.num_ps, cur.num_workers);
        double score = 0.0;
        for (size_t k = 0; k < kDl2NumFeatures; ++k) {
          score += w[k] * x[k];
        }
        if (stats_ != nullptr) {
          ++stats_->pops;
        }
        // Strict > makes ties deterministic: earliest job wins, and within a
        // job the worker candidate beats the PS candidate.
        if (score > best_score) {
          best_score = score;
          best_index = i;
          best_is_worker = is_worker;
          best_next = next;
        }
      }
    }
    if (best_index >= jobs.size()) {
      break;
    }
    const SchedJob& job = jobs[best_index];
    used += best_is_worker ? job.worker_demand : job.ps_demand;
    result[best_index] = best_next;
    if (stats_ != nullptr) {
      ++stats_->grants;
    }
  }
  return result;
}

}  // namespace optimus
