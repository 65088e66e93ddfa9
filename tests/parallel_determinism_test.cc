// Determinism regression tests for the parallel fast paths: the experiment
// runner, per-arrival speed-model sampling, the parallel interval engine
// (per-job stepping, scheduler-input construction) and the events engine's
// model-refit fan-out must produce
// bitwise-identical metrics AND event traces for any thread count (each
// repeat / job owns an independent split RNG, results commit into index-owned
// slots, and shared-state effects merge serially in job order).
//
// Runs compare through RunFingerprint (src/sim/run_fingerprint.h), which
// leaves out the wall_* profiling fields: they are host measurements, not
// simulation outputs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_injector.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/workload.h"

namespace optimus {
namespace {

void ExpectSameRun(const RunFingerprint& a, const RunFingerprint& b) {
  std::string why;
  EXPECT_TRUE(a.Matches(b, &why)) << "diverged on " << why;
}

ExperimentConfig SmallExperiment(int threads) {
  ExperimentConfig config;
  config.workload.num_jobs = 6;
  config.workload.arrival_window_s = 2400.0;
  config.sim.max_sim_time_s = 2e5;
  config.repeats = 3;
  config.base_seed = 7;
  config.threads = threads;
  return config;
}

TEST(ParallelDeterminismTest, ExperimentRunnerMatchesSerialBitForBit) {
  const ExperimentResult serial =
      RunExperiment(SmallExperiment(1), [] { return BuildTestbed(); });
  const ExperimentResult parallel =
      RunExperiment(SmallExperiment(4), [] { return BuildTestbed(); });

  EXPECT_EQ(serial.avg_jct_mean, parallel.avg_jct_mean);
  EXPECT_EQ(serial.avg_jct_stddev, parallel.avg_jct_stddev);
  EXPECT_EQ(serial.makespan_mean, parallel.makespan_mean);
  EXPECT_EQ(serial.makespan_stddev, parallel.makespan_stddev);
  EXPECT_EQ(serial.scaling_overhead_mean, parallel.scaling_overhead_mean);
  EXPECT_EQ(serial.completed_fraction, parallel.completed_fraction);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (size_t r = 0; r < serial.runs.size(); ++r) {
    ExpectSameRun(RunFingerprint::Of(serial.runs[r]), RunFingerprint::Of(parallel.runs[r]));
  }
}

// Same small experiment with the fault subsystem fully lit up: scripted
// crashes (single-server and rack-style), a slowdown burst, task failures,
// periodic checkpoints, and the auditor. All fault draws come from per-job
// split streams and the injector advances serially, so metrics must stay
// bitwise identical for any thread count.
ExperimentConfig SmallFaultedExperiment(int threads) {
  ExperimentConfig config = SmallExperiment(threads);
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;"
      "rack@4200:servers=6-8,recover=12000;"
      "slow@2400:factor=0.7,duration=1800",
      &config.sim.fault.plan, &error))
      << error;
  config.sim.fault.task_failure_prob = 0.03;
  config.sim.fault.checkpoint_period_s = 1800.0;
  config.sim.audit = true;
  return config;
}

TEST(ParallelDeterminismTest, FaultedExperimentMatchesSerialBitForBit) {
  const ExperimentResult serial =
      RunExperiment(SmallFaultedExperiment(1), [] { return BuildTestbed(); });
  const ExperimentResult parallel =
      RunExperiment(SmallFaultedExperiment(4), [] { return BuildTestbed(); });

  EXPECT_EQ(serial.avg_jct_mean, parallel.avg_jct_mean);
  EXPECT_EQ(serial.makespan_mean, parallel.makespan_mean);
  EXPECT_EQ(serial.task_failures_mean, parallel.task_failures_mean);
  EXPECT_EQ(serial.job_evictions_mean, parallel.job_evictions_mean);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  int64_t total_faults = 0;
  for (size_t r = 0; r < serial.runs.size(); ++r) {
    ExpectSameRun(RunFingerprint::Of(serial.runs[r]), RunFingerprint::Of(parallel.runs[r]));
    total_faults += serial.runs[r].server_crashes + serial.runs[r].task_failures;
    EXPECT_EQ(serial.runs[r].audit_violations, 0);
  }
  // The fault plan genuinely fired — otherwise this test pins nothing.
  EXPECT_GT(total_faults, 0);
}

RunFingerprint RunSimulatorWithThreads(int threads) {
  SimulatorConfig sim;
  sim.seed = 11;
  sim.max_sim_time_s = 2e5;
  sim.threads = threads;

  WorkloadConfig workload;
  workload.num_jobs = 8;
  // Squeeze the arrivals so several jobs land in the same scheduling interval
  // and the pre-run sampling genuinely runs concurrently.
  workload.arrival_window_s = 1200.0;

  Rng workload_rng(sim.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator simulator(sim, BuildTestbed(), std::move(specs));
  simulator.Run();
  return RunFingerprint::Of(simulator);
}

TEST(ParallelDeterminismTest, ParallelPreRunSamplingMatchesSerialBitForBit) {
  ExpectSameRun(RunSimulatorWithThreads(1), RunSimulatorWithThreads(4));
}

// ---------------------------------------------------------------------------
// Parallel interval engine: a faulted + audited run must be bitwise identical
// — metrics and the full event trace — across thread counts, both on the
// testbed with the default loss feed and under a dense loss feed.
// ---------------------------------------------------------------------------

enum class LossFeed {
  // The testbed run to completion with the default loss feed.
  kDefault,
  // One loss sample every ~6 simulated seconds, fitted at full fidelity (no
  // 512-point downsampling cap), on 60 jobs over 200 nodes for 8 intervals:
  // every running job's Gram-cached refit fans out across the pool.
  kDense,
  // kDense on the events engine over a contention fabric (racks of 32, 4:1
  // rack uplinks): model refits fan out in uneven chunks, and the calling
  // thread runs some of them.
  kDenseEventsFabric,
};

RunFingerprint RunFaultedAuditedSimulator(LossFeed feed, int threads) {
  SimulatorConfig sim;
  sim.threads = threads;
  sim.audit = true;
  WorkloadConfig workload;
  std::vector<Server> servers;
  std::string plan;
  if (feed == LossFeed::kDense || feed == LossFeed::kDenseEventsFabric) {
    sim.seed = 7;
    sim.max_sim_time_s = 8 * sim.interval_s;
    plan = "crash@1800:server=2,recover=9000;slow@2400:factor=0.8,duration=1800";
    sim.fault.task_failure_prob = 0.005;
    sim.fault.checkpoint_period_s = 3600.0;
    sim.conv_samples_per_interval = 300;
    sim.conv_fit_points = 16384;
    workload.num_jobs = 60;
    workload.arrival_window_s = 5 * sim.interval_s;
    servers = BuildUniformCluster(200, Resources(16, 80, 0, 1));
    if (feed == LossFeed::kDenseEventsFabric) {
      sim.engine = SimEngine::kEvents;
      sim.rack_size = 32;
      sim.net.model = NetworkConfig::Model::kContention;
      sim.net.oversubscription = 4.0;
    }
  } else {
    sim.seed = 11;
    sim.max_sim_time_s = 2e5;
    plan =
        "crash@1800:server=2,recover=9000;"
        "rack@4200:servers=6-8,recover=12000;"
        "slow@2400:factor=0.7,duration=1800";
    sim.fault.task_failure_prob = 0.03;
    sim.fault.checkpoint_period_s = 1800.0;
    workload.num_jobs = 8;
    workload.arrival_window_s = 1200.0;
    servers = BuildTestbed();
  }
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(plan, &sim.fault.plan, &error)) << error;

  Rng workload_rng(sim.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator simulator(sim, std::move(servers), std::move(specs));
  simulator.Run();
  return RunFingerprint::Of(simulator);
}

// The run must actually exercise faults and auditing, or it pins nothing.
void ExpectFaultedAndAudited(const RunFingerprint& run) {
  EXPECT_GT(run.metrics.server_crashes + run.metrics.task_failures, 0);
  EXPECT_GT(run.metrics.audit_checks, 0);
  EXPECT_EQ(run.metrics.audit_violations, 0);
  ASSERT_FALSE(run.events.empty());
}

TEST(ParallelDeterminismTest, FaultedAuditedIntervalEngineMatchesAcrossThreads) {
  for (const LossFeed feed : {LossFeed::kDefault, LossFeed::kDense}) {
    SCOPED_TRACE(feed == LossFeed::kDense ? "dense loss feed" : "default loss feed");
    const RunFingerprint base = RunFaultedAuditedSimulator(feed, 1);
    ExpectFaultedAndAudited(base);
    for (const int threads : {2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ExpectSameRun(base, RunFaultedAuditedSimulator(feed, threads));
    }
  }
}

TEST(ParallelDeterminismTest, FaultedAuditedEventsEngineMatchesAcrossThreads) {
  const RunFingerprint base = RunFaultedAuditedSimulator(LossFeed::kDenseEventsFabric, 1);
  ExpectFaultedAndAudited(base);
  // An odd runner count splits the refit fan-out unevenly.
  for (const int threads : {3, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectSameRun(
        base, RunFaultedAuditedSimulator(LossFeed::kDenseEventsFabric, threads));
  }
}

}  // namespace
}  // namespace optimus
