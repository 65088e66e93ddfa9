#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sched/exhaustive_allocator.h"
#include "src/sched/optimus_allocator.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

SchedJob MakeJob(int id, double remaining, double a, double b, int caps = 6) {
  SchedJob job;
  job.job_id = id;
  job.worker_demand = Resources(5, 10, 0, 0.2);
  job.ps_demand = Resources(5, 10, 0, 0.2);
  job.max_ps = caps;
  job.max_workers = caps;
  job.remaining_epochs = remaining;
  job.speed = KeepSpeed([a, b](int p, int w) {
    return 1.0 / (a / w + 1.0 + b * w / p + 0.1 * w + 0.1 * p);
  });
  return job;
}

TEST(ExhaustiveAllocatorTest, SingleJobFindsItsOptimum) {
  // With one job and ample capacity, brute force must find the argmax of f.
  SchedJob job = MakeJob(0, 10.0, 6.0, 0.5);
  ExhaustiveAllocator exhaustive;
  std::vector<Allocation> best = exhaustive.Allocate({job}, Resources(200, 2000, 0, 100));
  ASSERT_TRUE(ActiveAllocation(best[0], job.comm));
  const double f_best = job.speed(best[0].num_ps, best[0].num_workers);
  for (int p = 1; p <= 6; ++p) {
    for (int w = 1; w <= 6; ++w) {
      // Only configurations that fit in capacity are candidates; all do here.
      EXPECT_LE(job.speed(p, w), f_best + 1e-12) << "p=" << p << " w=" << w;
    }
  }
}

TEST(ExhaustiveAllocatorTest, RespectsCapacity) {
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, 4.0, 0.8, 4),
                                MakeJob(1, 20.0, 8.0, 0.4, 4)};
  const Resources capacity(40, 400, 0, 100);  // 8 tasks
  ExhaustiveAllocator exhaustive;
  std::vector<Allocation> alloc = exhaustive.Allocate(jobs, capacity);
  Resources used;
  for (size_t i = 0; i < jobs.size(); ++i) {
    used += AllocationDemand(jobs[i], alloc[i]);
  }
  EXPECT_TRUE(capacity.Fits(used));
}

TEST(ExhaustiveAllocatorTest, ObjectiveAccountsForDeferredJobs) {
  SchedJob job = MakeJob(0, 10.0, 4.0, 0.8);
  const double with_nothing = ExhaustiveAllocator::Objective({job}, {Allocation{}});
  const double with_seed = ExhaustiveAllocator::Objective({job}, {Allocation{1, 1}});
  EXPECT_GT(with_nothing, with_seed);  // deferring is penalized
}

TEST(ExhaustiveAllocatorTest, GreedyWithinTwentyPercentOfOptimal) {
  // The §4.1 greedy is a heuristic for an NP-hard program; on random small
  // instances it should stay close to the enumerated optimum.
  Rng rng(77);
  double worst_gap = 0.0;
  for (int trial = 0; trial < 12; ++trial) {
    Rng trial_rng = rng.Split(trial);
    std::vector<SchedJob> jobs;
    const int n = static_cast<int>(trial_rng.UniformInt(2, 3));
    for (int i = 0; i < n; ++i) {
      jobs.push_back(MakeJob(i, trial_rng.Uniform(2.0, 40.0),
                             trial_rng.Uniform(2.0, 12.0),
                             trial_rng.Uniform(0.2, 1.5), /*caps=*/5));
    }
    // Tight capacity so the allocation choice matters.
    const Resources capacity(trial_rng.Uniform(40.0, 80.0), 4000, 0, 100);

    const std::vector<Allocation> greedy = OptimusAllocator().Allocate(jobs, capacity);
    const std::vector<Allocation> optimal = ExhaustiveAllocator().Allocate(jobs, capacity);
    const double greedy_obj = ExhaustiveAllocator::Objective(jobs, greedy);
    const double optimal_obj = ExhaustiveAllocator::Objective(jobs, optimal);
    ASSERT_GT(optimal_obj, 0.0);
    EXPECT_GE(greedy_obj, optimal_obj - 1e-9);  // optimal really is optimal
    worst_gap = std::max(worst_gap, greedy_obj / optimal_obj - 1.0);
  }
  EXPECT_LT(worst_gap, 0.20) << "greedy strayed " << worst_gap * 100 << "% from optimal";
}

TEST(ExhaustiveAllocatorTest, DeterministicAndMatchesObjective) {
  std::vector<SchedJob> jobs = {MakeJob(0, 5.0, 3.0, 0.6, 4),
                                MakeJob(1, 15.0, 6.0, 1.0, 4)};
  const Resources capacity(60, 600, 0, 100);
  ExhaustiveAllocator exhaustive;
  const std::vector<Allocation> a = exhaustive.Allocate(jobs, capacity);
  const std::vector<Allocation> b = exhaustive.Allocate(jobs, capacity);
  EXPECT_EQ(ExhaustiveAllocator::Objective(jobs, a),
            ExhaustiveAllocator::Objective(jobs, b));
}

}  // namespace
}  // namespace optimus
