#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/models/model_zoo.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/sweep.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

TEST(WorkloadTest, GeneratesRequestedJobsSortedByArrival) {
  WorkloadConfig config;
  config.num_jobs = 25;
  Rng rng(1);
  std::vector<JobSpec> jobs = GenerateWorkload(config, &rng);
  ASSERT_EQ(jobs.size(), 25u);
  for (size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival_time_s, jobs[i - 1].arrival_time_s);
  }
  for (const JobSpec& j : jobs) {
    EXPECT_GE(j.convergence_delta, WorkloadSpec{}.delta_lo);
    EXPECT_LE(j.convergence_delta, WorkloadSpec{}.delta_hi);
    EXPECT_NE(j.model, nullptr);
  }
}

TEST(WorkloadTest, FirstNineJobsCoverTheZoo) {
  WorkloadConfig config;
  config.num_jobs = 9;
  Rng rng(2);
  std::vector<JobSpec> jobs = GenerateWorkload(config, &rng);
  std::set<std::string> names;
  for (const JobSpec& j : jobs) {
    names.insert(j.model->name);
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(WorkloadTest, UniformArrivalsWithinWindow) {
  WorkloadConfig config;
  config.num_jobs = 50;
  config.arrival_window_s = 12000.0;
  Rng rng(3);
  for (const JobSpec& j : GenerateWorkload(config, &rng)) {
    EXPECT_GE(j.arrival_time_s, 0.0);
    EXPECT_LE(j.arrival_time_s, 12000.0);
  }
}

TEST(WorkloadTest, PoissonInterArrivalsMatchRate) {
  WorkloadConfig config;
  config.num_jobs = 300;
  config.arrivals = ArrivalSpec::Kind::kPoisson;
  config.arrivals_per_interval = 3.0;
  config.interval_s = 600.0;
  Rng rng(4);
  std::vector<JobSpec> jobs = GenerateWorkload(config, &rng);
  const double span = jobs.back().arrival_time_s;
  const double rate = 300.0 / span;  // arrivals per second
  EXPECT_NEAR(rate, 3.0 / 600.0, 0.001);
}

TEST(WorkloadTest, GoogleTraceIsBurstier) {
  // The bursty process should have a higher coefficient of variation of
  // per-interval arrival counts than the Poisson process.
  auto arrival_cv = [](ArrivalSpec::Kind kind) {
    WorkloadConfig config;
    config.num_jobs = 400;
    config.arrivals = kind;
    Rng rng(5);
    std::vector<JobSpec> jobs = GenerateWorkload(config, &rng);
    std::vector<double> counts;
    const double span = jobs.back().arrival_time_s;
    const int buckets = static_cast<int>(span / config.interval_s) + 1;
    counts.assign(buckets, 0.0);
    for (const JobSpec& j : jobs) {
      counts[static_cast<size_t>(j.arrival_time_s / config.interval_s)] += 1.0;
    }
    double mean = 0.0;
    for (double c : counts) {
      mean += c;
    }
    mean /= counts.size();
    double var = 0.0;
    for (double c : counts) {
      var += (c - mean) * (c - mean);
    }
    var /= counts.size();
    return std::sqrt(var) / mean;
  };
  EXPECT_GT(arrival_cv(ArrivalSpec::Kind::kBursty),
            arrival_cv(ArrivalSpec::Kind::kPoisson) * 1.3);
}

TEST(WorkloadTest, ForcedModeApplies) {
  WorkloadConfig config;
  config.num_jobs = 20;
  config.forced_mode = TrainingMode::kSync;
  Rng rng(6);
  for (const JobSpec& j : GenerateWorkload(config, &rng)) {
    EXPECT_EQ(j.mode, TrainingMode::kSync);
  }
}

TEST(WorkloadTest, DownscalingCapsStepsPerEpoch) {
  WorkloadConfig config;
  config.target_steps_per_epoch = 20;
  Rng rng(7);
  for (const JobSpec& j : GenerateWorkload(config, &rng)) {
    EXPECT_LE(j.StepsPerEpoch(), 21);
  }
}

// ---------------------------------------------------------------------------
// Simulator end-to-end
// ---------------------------------------------------------------------------

class SimulatorTest : public ::testing::Test {
 protected:
  static std::vector<JobSpec> SmallWorkload(int n, uint64_t seed) {
    WorkloadConfig config;
    config.num_jobs = n;
    config.arrival_window_s = 3000.0;
    Rng rng(seed);
    return GenerateWorkload(config, &rng);
  }
};

TEST_F(SimulatorTest, AllJobsCompleteUnderEveryScheduler) {
  for (const char* policy : {"optimus", "drf", "tetris"}) {
    SCOPED_TRACE(policy);
    SimulatorConfig config;
    config.policy = policy;
    config.seed = 11;
    Simulator sim(config, BuildTestbed(), SmallWorkload(6, 11));
    RunMetrics metrics = sim.Run();
    EXPECT_EQ(metrics.completed_jobs, 6);
    EXPECT_GT(metrics.avg_jct_s, 0.0);
    EXPECT_GT(metrics.makespan_s, 0.0);
    EXPECT_GE(metrics.makespan_s, metrics.avg_jct_s);
  }
}

TEST_F(SimulatorTest, DeterministicForSameSeed) {
  auto run = [this] {
    SimulatorConfig config;
    config.seed = 13;
    Simulator sim(config, BuildTestbed(), SmallWorkload(5, 13));
    return sim.Run();
  };
  RunMetrics a = run();
  RunMetrics b = run();
  EXPECT_DOUBLE_EQ(a.avg_jct_s, b.avg_jct_s);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.jcts.size(), b.jcts.size());
  for (size_t i = 0; i < a.jcts.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jcts[i], b.jcts[i]);
  }
}

// Arrival order on both engines. The constructor specs are unsorted with
// tied arrival times, a job submitted online arrives before constructor jobs
// that are still queued (and, on the interval engine, activates in the same
// round as two of them), and a queued job is killed before it arrives. Jobs
// activate in (activation time, jobs_ index) order, the killed job never
// arrives, and the sequences are pinned.
TEST_F(SimulatorTest, ArrivalOrderPinnedOnBothEngines) {
  using Arrival = std::pair<double, int>;  // (activation time, job id)
  const std::vector<double> arrivals = {900, 0, 900, 1500, 0, 300, 1500, 2400};
  const int kSubmitted = 100;
  const int kKilled = 7;
  // jobs_ index of each job id: constructor specs in order, then the submit.
  auto index_of = [&](int id) {
    return id == kSubmitted ? static_cast<int>(arrivals.size()) : id;
  };
  const std::vector<Arrival> want_interval = {
      {0, 1}, {0, 4}, {600, 5}, {1200, 0}, {1200, 2},
      {1800, 3}, {1800, 6}, {1800, kSubmitted}};
  const std::vector<Arrival> want_events = {
      {0, 1}, {0, 4}, {300, 5}, {900, 0}, {900, 2},
      {1300, kSubmitted}, {1500, 3}, {1500, 6}};
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SCOPED_TRACE(SimEngineName(engine));
    std::vector<JobSpec> specs = SmallWorkload(8, 23);
    for (size_t i = 0; i < specs.size(); ++i) {
      specs[i].arrival_time_s = arrivals[i];
    }
    JobSpec late = specs[1];
    late.id = kSubmitted;
    late.arrival_time_s = 1300.0;
    SimulatorConfig config;
    config.seed = 23;
    config.engine = engine;
    Simulator sim(config, BuildTestbed(), specs);
    sim.AdvanceTo(1000.0);
    std::string why;
    ASSERT_TRUE(sim.SubmitJob(late, &why)) << why;
    ASSERT_TRUE(sim.KillJob(kKilled, &why)) << why;
    sim.Run();

    std::vector<Arrival> got;
    for (const SimEvent& e : sim.trace().events()) {
      if (e.type == SimEventType::kArrival) {
        got.push_back({e.time_s, e.job_id});
      }
    }
    ASSERT_EQ(got.size(), arrivals.size()) << "every job but the killed one";
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LT(std::make_pair(got[i - 1].first, index_of(got[i - 1].second)),
                std::make_pair(got[i].first, index_of(got[i].second)))
          << "arrival " << i;
    }
    for (const Arrival& a : got) {
      EXPECT_NE(a.second, kKilled);
    }
    EXPECT_EQ(got, engine == SimEngine::kInterval ? want_interval : want_events);
  }
}

// A cluster idle until 5000 s has already settled on its resume round when a
// job arriving at 1000 s is submitted. The submission must pull the resume
// forward, so the session runs exactly like the same two specs given up front
// (the submission appended).
TEST_F(SimulatorTest, SubmissionAheadOfIdleResumeMatchesUpFrontRun) {
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SCOPED_TRACE(SimEngineName(engine));
    std::vector<JobSpec> specs = SmallWorkload(2, 31);
    specs[0].arrival_time_s = 5000.0;
    specs[1].arrival_time_s = 1000.0;
    SimulatorConfig config;
    config.seed = 31;
    config.engine = engine;
    Simulator up_front(config, BuildTestbed(), specs);
    const RunMetrics want = up_front.Run();
    ASSERT_EQ(want.completed_jobs, 2);

    Simulator session(config, BuildTestbed(), {specs[0]});
    session.AdvanceTo(0.0);
    std::string why;
    ASSERT_TRUE(session.SubmitJob(specs[1], &why)) << why;
    const RunMetrics got = session.Run();
    EXPECT_EQ(session.trace().digest(), up_front.trace().digest());
    EXPECT_EQ(session.trace().size(), up_front.trace().size());
    EXPECT_EQ(got.avg_jct_s, want.avg_jct_s);
  }
}

// Completed jobs are retired, so a round walks only the live set. A long,
// sparse trace builds up ten times more finished jobs than live ones. Each
// round must touch at most kWalks runtimes per job it could see (the live
// set before it plus its arrivals), however many have finished, and must
// leave no more runtimes alive than that.
TEST_F(SimulatorTest, RoundsWalkOnlyTheLiveSet) {
  // Walks over the live table in one round without faults or a fabric: 7 on
  // the interval engine, 9 on the event engine.
  constexpr int64_t kWalks = 9;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SCOPED_TRACE(SimEngineName(engine));
    WorkloadConfig workload;
    workload.num_jobs = 60;
    workload.arrival_window_s = 60 * 7200.0;
    Rng rng(29);
    SimulatorConfig config;
    config.seed = 29;
    config.engine = engine;
    Simulator sim(config, BuildTestbed(), GenerateWorkload(workload, &rng));

    auto arrivals = [&sim] { return sim.trace().CountByType()[SimEventType::kArrival]; };
    bool saw_ratio = false;
    for (int round = 1; sim.metrics().completed_jobs < 60; ++round) {
      ASSERT_LT(round, 10000) << "jobs never completed";
      const int64_t live = sim.live_jobs();
      const int64_t arrived = arrivals();
      const int64_t visits = sim.runtime_visits();
      const int completed = sim.metrics().completed_jobs;
      // One round: the interval engine steps once; the event engine drains
      // through the round at this boundary.
      sim.AdvanceTo(engine == SimEngine::kInterval ? sim.now_s() + config.interval_s
                                                   : round * config.interval_s);
      const int64_t seen = live + arrivals() - arrived;
      EXPECT_LE(sim.live_jobs(), seen) << "round " << round;
      EXPECT_LE(sim.runtime_visits() - visits, kWalks * seen) << "round " << round;
      saw_ratio = saw_ratio || (live > 0 && completed >= 10 * live);
    }
    EXPECT_TRUE(saw_ratio) << "the trace never had 10x more finished jobs than live";
  }
}

TEST_F(SimulatorTest, JctsArePositiveAndBoundedByMakespan) {
  SimulatorConfig config;
  config.seed = 17;
  Simulator sim(config, BuildTestbed(), SmallWorkload(5, 17));
  RunMetrics metrics = sim.Run();
  for (double jct : metrics.jcts) {
    EXPECT_GT(jct, 0.0);
    EXPECT_LE(jct, metrics.makespan_s + 1e-6);
  }
}

TEST_F(SimulatorTest, TimelineRecordsRunningTasks) {
  SimulatorConfig config;
  config.seed = 19;
  Simulator sim(config, BuildTestbed(), SmallWorkload(5, 19));
  RunMetrics metrics = sim.Run();
  ASSERT_FALSE(metrics.timeline.empty());
  int max_tasks = 0;
  for (const TimelinePoint& p : metrics.timeline) {
    max_tasks = std::max(max_tasks, p.running_tasks);
    EXPECT_GE(p.worker_cpu_util_pct, 0.0);
    EXPECT_LE(p.worker_cpu_util_pct, 100.0);
  }
  EXPECT_GT(max_tasks, 0);
}

TEST_F(SimulatorTest, StepIntervalAdvancesTime) {
  SimulatorConfig config;
  config.seed = 23;
  Simulator sim(config, BuildTestbed(), SmallWorkload(3, 23));
  const double t0 = sim.now_s();
  sim.AdvanceTo(t0 + config.interval_s);
  EXPECT_GT(sim.now_s(), t0);
}

TEST_F(SimulatorTest, ScalingEventsChargeStalls) {
  SimulatorConfig config;
  config.seed = 29;
  Simulator sim(config, BuildTestbed(), SmallWorkload(6, 29));
  RunMetrics metrics = sim.Run();
  // Scaling overhead is reported and small (the paper reports ~2.5%).
  EXPECT_GE(metrics.scaling_overhead_fraction, 0.0);
  EXPECT_LT(metrics.scaling_overhead_fraction, 0.2);
}

TEST_F(SimulatorTest, CheckpointBudgetFreezesAllocation) {
  SimulatorConfig config;
  config.checkpoint.max_scalings_per_job = 1;
  config.seed = 31;
  Simulator sim(config, BuildTestbed(), SmallWorkload(6, 31));
  RunMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.completed_jobs, 6);
  for (double jct : metrics.jcts) {
    EXPECT_GT(jct, 0.0);
  }
}

// A full Optimus round gives a sync all-reduce job workers and no parameter
// servers. The auditor only exempts all-reduce jobs from the PS > 0 rule, so
// the zero is asserted here.
TEST_F(SimulatorTest, AllReduceJobRunsWithoutParameterServers) {
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SCOPED_TRACE(SimEngineName(engine));
    JobSpec spec;
    spec.model = &FindModel("ResNext-110");
    spec.mode = TrainingMode::kSync;
    spec.comm = CommMode::kAllReduce;
    spec.worker_demand = Resources(2.5, 10, 0, 0.15);
    spec.ps_demand = Resources(2.5, 10, 0, 0.15);
    spec.dataset_scale = 0.1;  // long enough to outlast its first interval
    spec.max_ps = 16;
    spec.max_workers = 16;
    SimulatorConfig config;
    config.seed = 41;
    config.engine = engine;
    Simulator sim(config, BuildTestbed(), {spec});
    for (int round = 1; sim.job(0).state != JobState::kRunning; ++round) {
      ASSERT_LT(round, 10) << "the job never started";
      sim.AdvanceTo(round * config.interval_s);
    }
    const JobSnapshot job = sim.job(0);
    EXPECT_EQ(job.num_ps, 0);
    EXPECT_GT(job.num_workers, 1);
    EXPECT_GT(sim.auditor().checks_run(), 0);
    EXPECT_TRUE(sim.auditor().violations().empty()) << sim.auditor().Summary(5);
  }
}

TEST_F(SimulatorTest, OracleModeCompletesFaster) {
  // Perfect estimates should not be materially worse than fitted ones.
  auto run = [this](bool oracle) {
    SimulatorConfig config;
    config.oracle_estimates = oracle;
    config.seed = 37;
    Simulator sim(config, BuildTestbed(), SmallWorkload(6, 37));
    return sim.Run().avg_jct_s;
  };
  const double fitted = run(false);
  const double oracle = run(true);
  EXPECT_LT(oracle, fitted * 1.5);
  EXPECT_LT(fitted, oracle * 1.8);
}

TEST_F(SimulatorTest, InjectedErrorDegradesPerformance) {
  // Fig 15: larger prediction errors increase JCT (averaged over seeds).
  auto mean_jct = [this](double err) {
    double sum = 0.0;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SimulatorConfig config;
      config.oracle_estimates = true;
      config.error.convergence_error = err;
      config.error.speed_error = err;
      config.seed = seed;
      Simulator sim(config, BuildTestbed(), SmallWorkload(7, seed));
      sum += sim.Run().avg_jct_s;
    }
    return sum / 6.0;
  };
  EXPECT_LT(mean_jct(0.0), mean_jct(0.45) * 1.1);
}

TEST_F(SimulatorTest, StragglersSlowDownUnhandledJobs) {
  auto run = [this](double inject, bool handle) {
    double sum = 0.0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SimulatorConfig config;
      config.straggler.injection_prob_per_interval = inject;
      config.ablation.straggler_handling = handle;
      config.seed = seed;
      Simulator sim(config, BuildTestbed(), SmallWorkload(6, seed));
      sum += sim.Run().avg_jct_s;
    }
    return sum / 5.0;
  };
  const double clean = run(0.0, true);
  const double unhandled = run(0.4, false);
  const double handled = run(0.4, true);
  EXPECT_GT(unhandled, clean);
  EXPECT_LT(handled, unhandled);
}

// ---------------------------------------------------------------------------
// Experiments: repeated runs through RunSweep
// ---------------------------------------------------------------------------

TEST(ExperimentTest, AggregatesRepeats) {
  ScenarioSpec scenario;
  scenario.name = "unit";
  scenario.repeats = 3;
  scenario.policies = {"optimus"};
  scenario.workload.num_jobs = 5;
  scenario.workload.arrivals.window_s = 3000.0;
  const SweepResult result = RunSweep({scenario});
  ASSERT_EQ(result.cells.size(), 1u);
  const SweepCellResult& cell = result.cells[0];
  ASSERT_EQ(cell.runs.size(), 3u);
  std::vector<double> jcts;
  for (const RunMetrics& run : cell.runs) {
    jcts.push_back(run.avg_jct_s);
  }
  EXPECT_EQ(cell.avg_jct_mean, Mean(jcts));
  EXPECT_GT(cell.avg_jct_mean, 0.0);
  EXPECT_GT(cell.makespan_mean, 0.0);
  EXPECT_DOUBLE_EQ(cell.completed_fraction, 1.0);
  EXPECT_EQ(cell.scenario, "unit");
  EXPECT_EQ(cell.jct_vs_baseline, 1.0);
}

TEST(ExperimentTest, OptimusBeatsBaselinesOnTestbedWorkload) {
  // The headline Fig-11 property: Optimus achieves lower average JCT and
  // makespan than both DRF and Tetris under the paper's testbed conditions.
  ScenarioSpec scenario;
  scenario.name = "testbed";
  scenario.repeats = 4;
  scenario.policies = {"optimus", "drf", "tetris"};
  scenario.workload.sizes.target_steps_per_epoch = 60;
  scenario.sim.straggler.injection_prob_per_interval = 0.12;
  const SweepResult result = RunSweep({scenario});
  ASSERT_EQ(result.cells.size(), 3u);
  const SweepCellResult& optimus = result.cells[0];
  for (const SweepCellResult& baseline : {result.cells[1], result.cells[2]}) {
    SCOPED_TRACE(baseline.policy);
    EXPECT_LT(optimus.avg_jct_mean, baseline.avg_jct_mean);
    EXPECT_LT(optimus.makespan_mean, baseline.makespan_mean);
  }
}

// max_sim_time_s / interval_s is capped at kMaxRounds, inclusively: past it
// a tiny interval_s is an error naming it, not a run that never ends.
TEST(SimulatorConfigTest, RoundCountIsBounded) {
  SimulatorConfig config;
  config.max_sim_time_s = 3e6;
  config.interval_s = 3e6 / kMaxRounds;
  EXPECT_TRUE(config.Validate(nullptr));
  for (const double interval : {std::nextafter(3e6 / kMaxRounds, 0.0), 1e-300}) {
    SCOPED_TRACE(interval);
    config.interval_s = interval;
    std::vector<std::string> errors;
    EXPECT_FALSE(config.Validate(&errors));
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0], "interval_s: max_sim_time_s / interval_s must be <= 10000000 rounds");
  }
}

}  // namespace
}  // namespace optimus
