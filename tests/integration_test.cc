// Cross-module integration and property-fuzz tests: randomized
// allocator/placement invariants and end-to-end simulator behaviours that
// span several subsystems (traces, data serving, LR drops, background
// workloads, FIFO baseline).

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sched/baseline_allocators.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Randomized allocator / placement invariants
// ---------------------------------------------------------------------------

std::vector<SchedJob> RandomJobs(int n, Rng* rng) {
  std::vector<SchedJob> jobs;
  for (int i = 0; i < n; ++i) {
    SchedJob job;
    job.job_id = i;
    const double cpu = rng->Uniform(1.0, 8.0);
    job.worker_demand = Resources(cpu, rng->Uniform(4, 16), 0, 0.1);
    job.ps_demand = Resources(cpu, rng->Uniform(4, 16), 0, 0.1);
    job.max_ps = static_cast<int>(rng->UniformInt(2, 12));
    job.max_workers = static_cast<int>(rng->UniformInt(2, 12));
    job.remaining_epochs = rng->Uniform(1.0, 80.0);
    const double a = rng->Uniform(1.0, 20.0);
    const double b = rng->Uniform(0.1, 2.0);
    job.speed = KeepSpeed([a, b](int p, int w) {
      return 1.0 / (a / w + 1.0 + b * w / p + 0.05 * w + 0.05 * p);
    });
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(AllocatorFuzzTest, CapacityNeverExceeded) {
  Rng rng(101);
  const OptimusAllocator optimus;
  const DrfAllocator drf;
  const TetrisAllocator tetris;
  const FifoAllocator fifo;
  const std::vector<const Allocator*> allocators = {&optimus, &drf, &tetris, &fifo};
  for (int trial = 0; trial < 30; ++trial) {
    Rng trial_rng = rng.Split(trial);
    const std::vector<SchedJob> jobs =
        RandomJobs(static_cast<int>(trial_rng.UniformInt(1, 12)), &trial_rng);
    const Resources capacity(trial_rng.Uniform(20, 300), trial_rng.Uniform(100, 2000),
                             0, 100);
    for (const Allocator* allocator : allocators) {
      SCOPED_TRACE(std::string(allocator->name()) + " trial " + std::to_string(trial));
      const std::vector<Allocation> result = allocator->Allocate(jobs, capacity);
      ASSERT_EQ(result.size(), jobs.size());
      Resources used;
      for (size_t i = 0; i < jobs.size(); ++i) {
        const Allocation& alloc = result[i];
        EXPECT_GE(alloc.num_ps, 0);
        EXPECT_GE(alloc.num_workers, 0);
        const SchedJob& job = jobs[i];
        EXPECT_LE(alloc.num_ps, job.max_ps);
        EXPECT_LE(alloc.num_workers, job.max_workers);
        used += AllocationDemand(job, alloc);
      }
      EXPECT_TRUE(capacity.Fits(used)) << "used " << used.ToString();
    }
  }
}

TEST(PlacementFuzzTest, ServerCapacityAndCountsInvariant) {
  Rng rng(202);
  for (int trial = 0; trial < 30; ++trial) {
    Rng trial_rng = rng.Split(trial);
    // Random heterogeneous cluster.
    std::vector<Server> servers;
    const int n_servers = static_cast<int>(trial_rng.UniformInt(2, 12));
    for (int s = 0; s < n_servers; ++s) {
      servers.emplace_back(
          s, Resources(trial_rng.Uniform(8, 32), trial_rng.Uniform(32, 128), 0, 1));
    }
    // Random jobs with random requested allocations.
    std::vector<PlacementJobInput> jobs;
    const int n_jobs = static_cast<int>(trial_rng.UniformInt(1, 8));
    for (int j = 0; j < n_jobs; ++j) {
      PlacementJobInput job;
      job.job_id = j;
      const double cpu = trial_rng.Uniform(1.0, 6.0);
      job.worker_demand = Resources(cpu, trial_rng.Uniform(2, 10), 0, 0.1);
      job.ps_demand = Resources(cpu, trial_rng.Uniform(2, 10), 0, 0.1);
      job.alloc = {static_cast<int>(trial_rng.UniformInt(1, 8)),
                   static_cast<int>(trial_rng.UniformInt(1, 8))};
      jobs.push_back(job);
    }

    for (PlacementPolicy policy :
         {PlacementPolicy::kOptimusPack, PlacementPolicy::kLoadBalance,
          PlacementPolicy::kTetrisPack}) {
      SCOPED_TRACE(std::string(PlacementPolicyName(policy)) + " trial " +
                   std::to_string(trial));
      std::vector<Server> scratch = servers;
      const std::vector<PlacedJob> result = PlaceJobs(policy, jobs, &scratch);
      ASSERT_EQ(result.size(), jobs.size());

      // Per-server usage within capacity.
      std::vector<Resources> used(servers.size());
      for (size_t i = 0; i < jobs.size(); ++i) {
        const PlacementJobInput& job = jobs[i];
        const JobPlacement& placement = result[i].placement;
        // Every job with an active request is either placed with a
        // non-empty placement or unplaced with an empty one.
        EXPECT_EQ(result[i].placed, !placement.empty()) << "job " << job.job_id;
        if (!result[i].placed) {
          continue;
        }
        ASSERT_EQ(placement.used_workers.size(), placement.used_servers.size());
        ASSERT_EQ(placement.used_ps.size(), placement.used_servers.size());
        ASSERT_TRUE(std::is_sorted(placement.used_servers.begin(),
                                   placement.used_servers.end()));
        placement.ForEachUsed([&](size_t s, int w, int p) {
          ASSERT_LT(s, servers.size());
          used[s] += job.worker_demand * w + job.ps_demand * p;
        });
        // Task counts match the effective allocation.
        const Allocation eff = result[i].alloc;
        EXPECT_EQ(placement.TotalWorkers(), eff.num_workers);
        EXPECT_EQ(placement.TotalPs(), eff.num_ps);
        // Effective allocation never exceeds the request.
        EXPECT_LE(eff.num_workers, job.alloc.num_workers);
        EXPECT_LE(eff.num_ps, job.alloc.num_ps);
      }
      for (size_t s = 0; s < servers.size(); ++s) {
        EXPECT_TRUE(servers[s].capacity().Fits(used[s]))
            << "server " << s << " used " << used[s].ToString();
      }
    }
  }
}

TEST(PlacementFuzzTest, DeterministicAcrossCalls) {
  Rng rng(303);
  std::vector<Server> servers = BuildTestbed();
  std::vector<PlacementJobInput> jobs;
  for (int j = 0; j < 6; ++j) {
    PlacementJobInput job;
    job.job_id = j;
    job.worker_demand = Resources(2.5, 10, 0, 0.1);
    job.ps_demand = Resources(2.5, 10, 0, 0.1);
    job.alloc = {static_cast<int>(rng.UniformInt(1, 6)),
                 static_cast<int>(rng.UniformInt(1, 6))};
    jobs.push_back(job);
  }
  std::vector<Server> servers_a = servers;
  std::vector<Server> servers_b = servers;
  const std::vector<PlacedJob> a =
      PlaceJobs(PlacementPolicy::kOptimusPack, jobs, &servers_a);
  const std::vector<PlacedJob> b =
      PlaceJobs(PlacementPolicy::kOptimusPack, jobs, &servers_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].placed, b[i].placed);
    const JobPlacement& pa = a[i].placement;
    const JobPlacement& pb = b[i].placement;
    EXPECT_EQ(pa.used_servers, pb.used_servers);
    EXPECT_EQ(pa.used_workers, pb.used_workers);
    EXPECT_EQ(pa.used_ps, pb.used_ps);
  }
}

// ---------------------------------------------------------------------------
// End-to-end simulator behaviours
// ---------------------------------------------------------------------------

std::vector<JobSpec> SmallWorkload(int n, uint64_t seed) {
  WorkloadConfig config;
  config.num_jobs = n;
  config.arrival_window_s = 3000.0;
  Rng rng(seed);
  return GenerateWorkload(config, &rng);
}

TEST(SimIntegrationTest, TraceCoversEveryJobLifecycle) {
  SimulatorConfig config;
  config.seed = 41;
  Simulator sim(config, BuildTestbed(), SmallWorkload(6, 41));
  RunMetrics metrics = sim.Run();
  ASSERT_EQ(metrics.completed_jobs, 6);

  const auto counts = sim.trace().CountByType();
  EXPECT_EQ(counts.at(SimEventType::kArrival), 6);
  EXPECT_EQ(counts.at(SimEventType::kScheduled), 6);
  EXPECT_EQ(counts.at(SimEventType::kCompleted), 6);
  // Per-job: arrival precedes scheduled precedes completed.
  for (int id = 0; id < 6; ++id) {
    const auto events = sim.trace().ForJob(id);
    ASSERT_GE(events.size(), 3u) << "job " << id;
    EXPECT_EQ(events.front().type, SimEventType::kArrival);
    EXPECT_EQ(events.back().type, SimEventType::kCompleted);
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].time_s, events[i - 1].time_s);
    }
  }
}

TEST(SimIntegrationTest, LearningRateDropEventRecorded) {
  JobSpec spec = SmallWorkload(1, 43)[0];
  spec.arrival_time_s = 0.0;
  spec.convergence_delta = 0.01;
  spec.lr_drop = LearningRateDrop{.epoch = 3.0, .c0 = 1.0,
                                  .c2 = spec.model->loss.c2 * 0.5};
  SimulatorConfig config;
  config.seed = 43;
  Simulator sim(config, BuildTestbed(), {spec});
  sim.Run();
  const auto counts = sim.trace().CountByType();
  EXPECT_EQ(counts.count(SimEventType::kLearningRateDrop) > 0 &&
                counts.at(SimEventType::kLearningRateDrop) == 1,
            true);
  // The drop event happens after at least 3 epochs of progress.
  for (const SimEvent& e : sim.trace().ForJob(spec.id)) {
    if (e.type == SimEventType::kLearningRateDrop) {
      EXPECT_GT(e.time_s, 0.0);
    }
  }
}

TEST(SimIntegrationTest, BackgroundShareReducesRunningTasks) {
  auto peak_tasks = [](double share) {
    SimulatorConfig config;
    config.policy = "drf";  // work-conserving
    config.background_share = share;
    config.seed = 47;
    Simulator sim(config, BuildTestbed(), SmallWorkload(8, 47));
    RunMetrics metrics = sim.Run();
    int peak = 0;
    for (const TimelinePoint& p : metrics.timeline) {
      peak = std::max(peak, p.running_tasks);
    }
    return peak;
  };
  EXPECT_LT(peak_tasks(0.5), peak_tasks(0.0));
}

TEST(SimIntegrationTest, FifoCompletesButUnderperformsOptimus) {
  auto run = [](const char* allocation) {
    double sum = 0.0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SimulatorConfig config;
      config.ablation.allocator = allocation;  // swap only the allocator
      config.seed = seed;
      WorkloadConfig workload;
      workload.num_jobs = 9;
      workload.target_steps_per_epoch = 60;
      Rng rng(seed);
      Simulator sim(config, BuildTestbed(), GenerateWorkload(workload, &rng));
      RunMetrics m = sim.Run();
      EXPECT_EQ(m.completed_jobs, 9);
      sum += m.avg_jct_s;
    }
    return sum / 4.0;
  };
  EXPECT_LT(run("optimus"), run("fifo"));
}

TEST(SimIntegrationTest, ChunkRebalancingChargesBoundedStalls) {
  // With an exaggerated chunk-move cost, total stalls grow but jobs still
  // finish; with zero cost, data rebalancing is free.
  auto total_stall = [](double chunk_move_s) {
    SimulatorConfig config;
    config.chunk_move_s = chunk_move_s;
    config.seed = 53;
    std::vector<JobSpec> jobs = SmallWorkload(6, 53);
    Simulator sim(config, BuildTestbed(), jobs);
    RunMetrics m = sim.Run();
    EXPECT_EQ(m.completed_jobs, 6);
    double stall = 0.0;
    for (const JobSpec& spec : jobs) {
      stall += sim.job(spec.id).total_stall_s;
    }
    return stall;
  };
  EXPECT_GE(total_stall(5.0), total_stall(0.0));
}

TEST(SimIntegrationTest, IntervalLengthAffectsGranularityNotCorrectness) {
  for (double interval : {300.0, 600.0, 1200.0}) {
    SCOPED_TRACE(interval);
    SimulatorConfig config;
    config.interval_s = interval;
    config.seed = 59;
    Simulator sim(config, BuildTestbed(), SmallWorkload(5, 59));
    RunMetrics m = sim.Run();
    EXPECT_EQ(m.completed_jobs, 5);
  }
}

TEST(SimIntegrationTest, UniformClusterSupportedEndToEnd) {
  SimulatorConfig config;
  config.seed = 61;
  Simulator sim(config, BuildUniformCluster(20, Resources(16, 80, 0, 1)),
                SmallWorkload(10, 61));
  RunMetrics m = sim.Run();
  EXPECT_EQ(m.completed_jobs, 10);
}

}  // namespace
}  // namespace optimus
