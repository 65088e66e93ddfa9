// Memoized speed surfaces (src/sched/speed_surface.h): memoization
// correctness, pass-through mode, sharing between equal estimates, inline
// evaluation of the closed-form kinds, and the guarantee that
// surface-backed allocation is bit-identical to direct-probe allocation for
// every allocator.

#include <cmath>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sched/baseline_allocators.h"
#include "src/sched/exhaustive_allocator.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/scheduler.h"
#include "src/sched/speed_surface.h"
#include "src/sched/what_if.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

// Concave speed improving in both p and w with diminishing returns.
SpeedEstimate ConcaveSpeed(double scale = 1.0) {
  return KeepSpeed([scale](int p, int w) {
    const double t = 4.0 / w + 1.0 + 0.8 * w / p + 0.05 * w + 0.05 * p;
    return scale / t;
  });
}

// Wraps `fn` so every underlying evaluation bumps *counter.
SpeedEstimate Counted(SpeedEstimate fn, std::shared_ptr<int> counter) {
  return KeepSpeed([fn = std::move(fn), counter](int p, int w) {
    ++*counter;
    return fn(p, w);
  });
}

SchedJob MakeJob(int id, double remaining_epochs, SpeedEstimate speed,
                 double cpu_per_task = 5.0) {
  SchedJob job;
  job.job_id = id;
  job.worker_demand = Resources(cpu_per_task, 10, 0, 0.2);
  job.ps_demand = Resources(cpu_per_task, 10, 0, 0.2);
  job.remaining_epochs = remaining_epochs;
  job.speed = std::move(speed);
  job.max_ps = 16;
  job.max_workers = 16;
  return job;
}

Resources Capacity(double cpu) { return Resources(cpu, 10000, 0, 1000); }

// ---------------------------------------------------------------------------
// SpeedSurface
// ---------------------------------------------------------------------------

TEST(SpeedSurfaceTest, MemoizesWithoutChangingValues) {
  auto evals = std::make_shared<int>(0);
  SpeedSurface surface(Counted(ConcaveSpeed(), evals), 8, 8);
  const SpeedEstimate direct = ConcaveSpeed();

  for (int round = 0; round < 3; ++round) {
    for (int p = 1; p <= 8; ++p) {
      for (int w = 1; w <= 8; ++w) {
        EXPECT_DOUBLE_EQ(surface.Speed(p, w), direct(p, w));
      }
    }
  }
  // 64 grid points evaluated once each, despite 192 probes.
  EXPECT_EQ(*evals, 64);
  EXPECT_EQ(surface.probes(), 192);
  EXPECT_EQ(surface.evals(), 64);
}

TEST(SpeedSurfaceTest, OutOfGridProbesFallThrough) {
  auto evals = std::make_shared<int>(0);
  SpeedSurface surface(Counted(ConcaveSpeed(), evals), 4, 4);

  EXPECT_DOUBLE_EQ(surface.Speed(5, 2), ConcaveSpeed()(5, 2));
  EXPECT_DOUBLE_EQ(surface.Speed(5, 2), ConcaveSpeed()(5, 2));
  EXPECT_EQ(*evals, 2);  // outside the grid: re-evaluated every time
  EXPECT_EQ(surface.probes(), 2);
  EXPECT_EQ(surface.evals(), 2);
}

TEST(SpeedSurfaceTest, DisabledCacheReEvaluatesEveryProbe) {
  auto evals = std::make_shared<int>(0);
  SpeedSurface surface(Counted(ConcaveSpeed(), evals), 8, 8,
                       /*cache_enabled=*/false);
  for (int i = 0; i < 5; ++i) {
    surface.Speed(2, 3);
  }
  EXPECT_EQ(*evals, 5);
  EXPECT_EQ(surface.probes(), surface.evals());
}

// ---------------------------------------------------------------------------
// SpeedSurfaceSet
// ---------------------------------------------------------------------------

TEST(SpeedSurfaceSetTest, SharesSurfacesBetweenEqualEstimates) {
  SpeedSurfaceSet set;
  const SpeedEstimate shared = ConcaveSpeed();
  const SchedJob a = MakeJob(0, 10.0, shared);
  const SchedJob b = MakeJob(1, 20.0, shared);
  const SchedJob c = MakeJob(2, 30.0, ConcaveSpeed());

  SpeedSurface* sa = set.Surface(a);
  EXPECT_EQ(set.Surface(b), sa);      // equal estimate, same caps
  EXPECT_NE(set.Surface(c), sa);      // another context: not equal
  EXPECT_EQ(set.Surface(a), sa);      // stable per job
  EXPECT_EQ(set.num_surfaces(), 2u);
}

TEST(SpeedSurfaceSetTest, UnequalEstimatesAreNotShared) {
  SpeedSurfaceSet set;
  const SchedJob a = MakeJob(0, 10.0, ConcaveSpeed());
  const SchedJob b = MakeJob(1, 20.0, ConcaveSpeed());
  ASSERT_FALSE(a.speed == b.speed);
  EXPECT_NE(set.Surface(a), set.Surface(b));
  EXPECT_EQ(set.num_surfaces(), 2u);
}

TEST(SpeedSurfaceSetTest, EqualEstimateDifferentCapsNotShared) {
  SpeedSurfaceSet set;
  const SpeedEstimate shared = ConcaveSpeed();
  SchedJob a = MakeJob(0, 10.0, shared);
  SchedJob b = MakeJob(1, 20.0, shared);
  b.max_workers = 8;
  EXPECT_NE(set.Surface(a), set.Surface(b));
}

TEST(SpeedSurfaceSetTest, RetiredSurfaceIsNeverFoundAgain) {
  SpeedSurfaceSet set;
  const SchedJob a = MakeJob(0, 10.0, ConcaveSpeed());
  SpeedSurface* old = set.Surface(a);
  old->Speed(1, 1);
  set.Retire(a);
  EXPECT_NE(set.Surface(a), old);
  EXPECT_EQ(set.num_surfaces(), 2u);
  EXPECT_EQ(set.probes(), 1);  // the retired surface still counts
}

TEST(SpeedSurfaceSetTest, ClosedFormKindsAreEvaluatedInline) {
  SpeedSurfaceSet set;
  SchedJob job = MakeJob(0, 10.0, SpeedEstimate());
  EXPECT_EQ(set.Speed(job, 2, 3), 0.0);
  EXPECT_EQ(set.num_surfaces(), 0u);
  EXPECT_EQ(set.probes(), 1);
  EXPECT_EQ(set.evals(), 1);
  job.speed = ConcaveSpeed();
  EXPECT_EQ(set.Speed(job, 2, 3), job.speed(2, 3));
  EXPECT_EQ(set.Speed(job, 2, 3), job.speed(2, 3));
  EXPECT_EQ(set.num_surfaces(), 1u);
  EXPECT_EQ(set.probes(), 3);
  EXPECT_EQ(set.evals(), 2);
}

// ---------------------------------------------------------------------------
// Allocators through surfaces
// ---------------------------------------------------------------------------

// The greedy carries each job's completion time at its current point, so a
// round probes every (job, point) once: without shared surfaces it evaluates
// exactly what it probes. Jobs sharing one surface evaluate each point once
// between them, so a shared round evaluates fewer points than it probes.
TEST(SpeedSurfaceSetTest, OptimusRoundEvaluatesFewerPointsThanItProbes) {
  {
    std::vector<SchedJob> jobs = {MakeJob(0, 10.0, ConcaveSpeed()),
                                  MakeJob(1, 25.0, ConcaveSpeed(2.0)),
                                  MakeJob(2, 40.0, ConcaveSpeed(0.5))};
    SpeedSurfaceSet surfaces;
    OptimusAllocator().Allocate(jobs, Capacity(200), &surfaces);
    EXPECT_GT(surfaces.probes(), 0);
    EXPECT_EQ(surfaces.evals(), surfaces.probes());
    EXPECT_EQ(surfaces.hit_rate(), 0.0);
  }
  {
    const SpeedEstimate shared = ConcaveSpeed();
    std::vector<SchedJob> jobs = {MakeJob(0, 10.0, shared), MakeJob(1, 25.0, shared),
                                  MakeJob(2, 40.0, shared)};
    SpeedSurfaceSet surfaces;
    OptimusAllocator().Allocate(jobs, Capacity(200), &surfaces);
    EXPECT_EQ(surfaces.num_surfaces(), 1u);
    EXPECT_GT(surfaces.probes(), 0);
    EXPECT_LT(surfaces.evals(), surfaces.probes());
    EXPECT_GT(surfaces.hit_rate(), 0.0);
  }
}

TEST(SpeedSurfaceSetTest, DisabledSetCountsButNeverCaches) {
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, ConcaveSpeed()),
                                MakeJob(1, 25.0, ConcaveSpeed(2.0))};
  SpeedSurfaceSet surfaces(/*cache_enabled=*/false);
  OptimusAllocator().Allocate(jobs, Capacity(120), &surfaces);
  EXPECT_GT(surfaces.probes(), 0);
  EXPECT_EQ(surfaces.evals(), surfaces.probes());
  EXPECT_EQ(surfaces.hit_rate(), 0.0);
}

// Surface-backed allocation must be bit-identical to direct probing for every
// allocator: the cache may never change a scheduling decision.
TEST(SpeedSurfaceSetTest, CachedAllocationMatchesDirectProbing) {
  Rng rng(424);
  const OptimusAllocator optimus;
  const DrfAllocator drf;
  const TetrisAllocator tetris;
  const FifoAllocator fifo;
  const std::vector<const Allocator*> allocators = {&optimus, &drf, &tetris, &fifo};

  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.Split(trial);
    std::vector<SchedJob> jobs;
    const int n = static_cast<int>(trial_rng.UniformInt(1, 8));
    for (int i = 0; i < n; ++i) {
      const double scale = trial_rng.Uniform(0.5, 3.0);
      jobs.push_back(MakeJob(i, trial_rng.Uniform(1.0, 50.0), ConcaveSpeed(scale),
                             trial_rng.Uniform(1.0, 6.0)));
    }
    // Half the trials exercise surface sharing: every job carries one
    // estimate.
    if (trial % 2 == 0) {
      const SpeedEstimate shared = ConcaveSpeed(1.5);
      for (SchedJob& job : jobs) {
        job.speed = shared;
      }
    }
    const Resources capacity(trial_rng.Uniform(20, 200), 10000, 0, 1000);

    for (const Allocator* allocator : allocators) {
      SpeedSurfaceSet cached(true);
      SpeedSurfaceSet direct(false);
      const std::vector<Allocation> with_cache = allocator->Allocate(jobs, capacity, &cached);
      const std::vector<Allocation> without = allocator->Allocate(jobs, capacity, &direct);
      ASSERT_EQ(with_cache.size(), without.size()) << allocator->name();
      for (size_t i = 0; i < with_cache.size(); ++i) {
        EXPECT_EQ(with_cache[i].num_ps, without[i].num_ps) << allocator->name();
        EXPECT_EQ(with_cache[i].num_workers, without[i].num_workers) << allocator->name();
      }
    }
  }
}

TEST(SpeedSurfaceSetTest, ExhaustiveAllocatorMatchesDirectProbing) {
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, ConcaveSpeed()),
                                MakeJob(1, 25.0, ConcaveSpeed(2.0))};
  for (SchedJob& job : jobs) {
    job.max_ps = 3;
    job.max_workers = 3;
  }
  SpeedSurfaceSet cached(true);
  SpeedSurfaceSet direct(false);
  const ExhaustiveAllocator exhaustive;
  const std::vector<Allocation> with_cache = exhaustive.Allocate(jobs, Capacity(25), &cached);
  const std::vector<Allocation> without = exhaustive.Allocate(jobs, Capacity(25), &direct);
  EXPECT_LT(cached.evals(), cached.probes());
  ASSERT_EQ(with_cache.size(), without.size());
  for (size_t i = 0; i < with_cache.size(); ++i) {
    EXPECT_EQ(with_cache[i].num_ps, without[i].num_ps);
    EXPECT_EQ(with_cache[i].num_workers, without[i].num_workers);
  }
}

// What-if admission runs its allocations plus completion-time passes over
// one shared surface set, the candidate on a private surface lent to it;
// sharing must not change the verdict.
TEST(WhatIfSurfaceTest, AdmissionUnchangedBySurfaceSharing) {
  std::vector<SchedJob> existing = {MakeJob(0, 10.0, ConcaveSpeed()),
                                    MakeJob(1, 25.0, ConcaveSpeed(2.0))};
  const SchedJob candidate = MakeJob(7, 15.0, ConcaveSpeed(1.2));
  const OptimusAllocator allocator;

  const WhatIfResult result =
      EvaluateAdmission(allocator, existing, candidate, Capacity(80));
  EXPECT_TRUE(result.admitted);
  EXPECT_GT(result.new_job_completion_s, 0.0);
  // The candidate's completion estimate must agree with its own (uncached)
  // speed function at the granted allocation.
  const double speed = candidate.speed(result.new_job_alloc.num_ps,
                                       result.new_job_alloc.num_workers);
  EXPECT_NEAR(result.new_job_completion_s, candidate.remaining_epochs / speed, 1e-9);
  // Existing jobs' estimates are positional: one finite entry per job.
  ASSERT_EQ(result.baseline_completion_s.size(), existing.size());
  ASSERT_EQ(result.with_job_completion_s.size(), existing.size());
  for (size_t i = 0; i < existing.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.baseline_completion_s[i])) << "job " << i;
  }
}

}  // namespace
}  // namespace optimus
