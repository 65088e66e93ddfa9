#include <cmath>

#include <gtest/gtest.h>

#include "src/sched/optimus_allocator.h"
#include "src/sched/what_if.h"

namespace optimus {
namespace {

SpeedEstimate ConcaveSpeed() {
  return [](int p, int w) {
    return 1.0 / (4.0 / w + 1.0 + 0.8 * w / p + 0.05 * w + 0.05 * p);
  };
}

SchedJob MakeJob(int id, double remaining_epochs) {
  SchedJob job;
  job.job_id = id;
  job.worker_demand = Resources(5, 10, 0, 0.2);
  job.ps_demand = Resources(5, 10, 0, 0.2);
  job.remaining_epochs = remaining_epochs;
  job.speed = ConcaveSpeed();
  job.max_ps = 16;
  job.max_workers = 16;
  return job;
}

TEST(WhatIfTest, AdmitsIntoIdleCluster) {
  OptimusAllocator allocator;
  WhatIfResult r = EvaluateAdmission(allocator, {}, MakeJob(0, 10.0),
                                     Resources(100, 1000, 0, 100));
  EXPECT_TRUE(r.admitted);
  EXPECT_TRUE(ActiveAllocation(r.new_job_alloc, CommMode::kParameterServer));
  EXPECT_GT(r.new_job_completion_s, 0.0);
  EXPECT_TRUE(std::isfinite(r.new_job_completion_s));
  EXPECT_DOUBLE_EQ(r.total_slowdown_s, 0.0);
}

TEST(WhatIfTest, AdmissionSlowsExistingJobsUnderContention) {
  OptimusAllocator allocator;
  std::vector<SchedJob> existing = {MakeJob(0, 20.0), MakeJob(1, 30.0)};
  // Tight capacity: the candidate must take resources from someone.
  WhatIfResult r = EvaluateAdmission(allocator, existing, MakeJob(2, 25.0),
                                     Resources(80, 800, 0, 80));
  EXPECT_TRUE(r.admitted);
  EXPECT_GT(r.total_slowdown_s, 0.0);
  // Every existing job's completion estimate exists in both scenarios.
  for (int id : {0, 1}) {
    EXPECT_TRUE(r.baseline_completion_s.count(id));
    EXPECT_TRUE(r.with_job_completion_s.count(id));
    EXPECT_GE(r.with_job_completion_s.at(id), r.baseline_completion_s.at(id) - 1e-9);
  }
}

TEST(WhatIfTest, NotAdmittedWhenNoCapacityForSeed) {
  OptimusAllocator allocator;
  std::vector<SchedJob> existing = {MakeJob(0, 20.0)};
  // Room for exactly one job's (1,1) seed.
  WhatIfResult r = EvaluateAdmission(allocator, existing, MakeJob(1, 10.0),
                                     Resources(10, 100, 0, 10));
  EXPECT_FALSE(r.admitted);
}

TEST(WhatIfTest, BaselineMatchesStandaloneAllocation) {
  OptimusAllocator allocator;
  std::vector<SchedJob> existing = {MakeJob(0, 15.0)};
  const Resources capacity(60, 600, 0, 60);
  WhatIfResult r = EvaluateAdmission(allocator, existing, MakeJob(1, 5.0), capacity);
  const std::vector<Allocation> direct = allocator.Allocate(existing, capacity);
  const Allocation a = direct[0];
  const double f = existing[0].speed(a.num_ps, a.num_workers);
  EXPECT_NEAR(r.baseline_completion_s.at(0), 15.0 / f, 1e-9);
}

}  // namespace
}  // namespace optimus
