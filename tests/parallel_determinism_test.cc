// Determinism regression tests for the parallel fast paths: the experiment
// runner, per-arrival speed-model sampling, the parallel interval engine
// (per-job stepping, scheduler-input construction) and the events engine's
// fan-outs (model refits, segment rebuilds) must produce
// bitwise-identical metrics AND event traces for any thread count (each
// repeat / job owns an independent split RNG, results commit into index-owned
// slots, and shared-state effects merge serially in job order).
//
// Wall-time profiling fields (RunMetrics::wall_*) are intentionally excluded
// from the comparisons — they are host measurements, not simulation outputs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/workload.h"

namespace optimus {
namespace {

void ExpectIdenticalMetrics(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.total_jobs, b.total_jobs);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  ASSERT_EQ(a.jcts.size(), b.jcts.size());
  for (size_t i = 0; i < a.jcts.size(); ++i) {
    EXPECT_EQ(a.jcts[i], b.jcts[i]) << "jct " << i;  // bitwise
  }
  EXPECT_EQ(a.avg_jct_s, b.avg_jct_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.scaling_overhead_fraction, b.scaling_overhead_fraction);
  EXPECT_EQ(a.straggler_replacements, b.straggler_replacements);
  EXPECT_EQ(a.total_scalings, b.total_scalings);
  EXPECT_EQ(a.server_crashes, b.server_crashes);
  EXPECT_EQ(a.server_recoveries, b.server_recoveries);
  EXPECT_EQ(a.task_failures, b.task_failures);
  EXPECT_EQ(a.job_evictions, b.job_evictions);
  EXPECT_EQ(a.backoff_deferrals, b.backoff_deferrals);
  EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
  EXPECT_EQ(a.rolled_back_steps, b.rolled_back_steps);  // bitwise
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time_s, b.timeline[i].time_s);
    EXPECT_EQ(a.timeline[i].running_tasks, b.timeline[i].running_tasks);
    EXPECT_EQ(a.timeline[i].worker_cpu_util_pct, b.timeline[i].worker_cpu_util_pct);
    EXPECT_EQ(a.timeline[i].ps_cpu_util_pct, b.timeline[i].ps_cpu_util_pct);
  }
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
    ExpectIdenticalMetrics(serial.runs[r], parallel.runs[r]);
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
    ExpectIdenticalMetrics(serial.runs[r], parallel.runs[r]);
    total_faults += serial.runs[r].server_crashes + serial.runs[r].task_failures;
    EXPECT_EQ(serial.runs[r].audit_violations, 0);
  }
  // The fault plan genuinely fired — otherwise this test pins nothing.
  EXPECT_GT(total_faults, 0);
}

RunMetrics RunSimulatorWithThreads(int threads) {
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
  return simulator.Run();
}

TEST(ParallelDeterminismTest, ParallelPreRunSamplingMatchesSerialBitForBit) {
  const RunMetrics serial = RunSimulatorWithThreads(1);
  const RunMetrics parallel = RunSimulatorWithThreads(4);
  ExpectIdenticalMetrics(serial, parallel);
}

// ---------------------------------------------------------------------------
// Parallel interval engine: a faulted + audited run must be bitwise identical
// — metrics and the full event trace — across thread counts, both on the
// testbed with the default loss feed and under a dense loss feed.
// ---------------------------------------------------------------------------

struct SimRunOutput {
  RunMetrics metrics;
  std::vector<SimEvent> events;
};

enum class LossFeed {
  // The testbed run to completion with the default loss feed.
  kDefault,
  // One loss sample every ~6 simulated seconds, fitted at full fidelity (no
  // 512-point downsampling cap), on 60 jobs over 200 nodes for 8 intervals:
  // every running job's Gram-cached refit fans out across the pool.
  kDense,
  // kDense on the events engine over a contention fabric (racks of 32, 4:1
  // rack uplinks): model refits and segment rebuilds fan out in uneven
  // chunks, and the calling thread runs some of them.
  kDenseEventsFabric,
};

SimRunOutput RunFaultedAuditedSimulator(LossFeed feed, int threads) {
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
  SimRunOutput out;
  out.metrics = simulator.Run();
  out.events = simulator.trace().events();
  return out;
}

// The run must actually exercise faults and auditing, or it pins nothing.
void ExpectFaultedAndAudited(const SimRunOutput& run) {
  EXPECT_GT(run.metrics.server_crashes + run.metrics.task_failures, 0);
  EXPECT_GT(run.metrics.audit_checks, 0);
  EXPECT_EQ(run.metrics.audit_violations, 0);
  ASSERT_FALSE(run.events.empty());
}

void ExpectIdenticalRuns(const SimRunOutput& base, const SimRunOutput& other) {
  ExpectIdenticalMetrics(base.metrics, other.metrics);
  ASSERT_EQ(base.events.size(), other.events.size());
  for (size_t i = 0; i < base.events.size(); ++i) {
    EXPECT_EQ(base.events[i].time_s, other.events[i].time_s) << "event " << i;
    EXPECT_EQ(base.events[i].type, other.events[i].type) << "event " << i;
    EXPECT_EQ(base.events[i].job_id, other.events[i].job_id) << "event " << i;
    EXPECT_EQ(base.events[i].num_ps, other.events[i].num_ps) << "event " << i;
    EXPECT_EQ(base.events[i].num_workers, other.events[i].num_workers)
        << "event " << i;
    EXPECT_EQ(base.events[i].detail, other.events[i].detail) << "event " << i;
  }
}

TEST(ParallelDeterminismTest, FaultedAuditedIntervalEngineMatchesAcrossThreads) {
  for (const LossFeed feed : {LossFeed::kDefault, LossFeed::kDense}) {
    SCOPED_TRACE(feed == LossFeed::kDense ? "dense loss feed" : "default loss feed");
    const SimRunOutput base = RunFaultedAuditedSimulator(feed, 1);
    ExpectFaultedAndAudited(base);
    for (const int threads : {2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ExpectIdenticalRuns(base, RunFaultedAuditedSimulator(feed, threads));
    }
  }
}

TEST(ParallelDeterminismTest, FaultedAuditedEventsEngineMatchesAcrossThreads) {
  const SimRunOutput base = RunFaultedAuditedSimulator(LossFeed::kDenseEventsFabric, 1);
  ExpectFaultedAndAudited(base);
  // An odd runner count splits the fan-outs unevenly.
  for (const int threads : {3, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectIdenticalRuns(
        base, RunFaultedAuditedSimulator(LossFeed::kDenseEventsFabric, threads));
  }
}

}  // namespace
}  // namespace optimus
