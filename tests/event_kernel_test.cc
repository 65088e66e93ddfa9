// Discrete-event kernel (src/sim/event_kernel.h, simulator_events.cc):
//
//   - EventQueue ordering: top()/pop() drains in the strict (time, kind,
//     job_id) total order, whatever the push order.
//   - Thread determinism: metrics and the full event trace are bitwise
//     identical for --threads {1, 2, 8}, with and without a fault plan, and
//     with fault-plan edges inside scheduling spans.
//   - Engine parity: on every golden scenario the event engine completes the
//     same jobs as the interval engine with average JCT inside the tolerance
//     documented in docs/ALGORITHMS.md section 16, and lifecycle trace
//     counts (arrivals, completions, crashes, recoveries) match exactly.
//   - Exact completion times: a job's recorded kCompleted timestamp minus
//     its recorded arrival reproduces its JCT exactly (no
//     interval-boundary quantization).
//   - Edge cases: zero jobs, and a cluster with no servers.
//   - Reference-batch speed samples: under a batch-adaptive policy with
//     fitted estimates, the engines' average JCTs agree within 2%.
//   - No refit of a finished job: the span a job completes in adds no model
//     fit on either engine, and on a noise-free one-job run both engines
//     report the same fit counters round by round.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/obs/metrics_registry.h"
#include "src/sim/event_kernel.h"
#include "src/sim/fault_injector.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

#ifndef OPTIMUS_SOURCE_DIR
#error "OPTIMUS_SOURCE_DIR must be defined to locate the scenario files"
#endif

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// EventQueue ordering.

// Drains the queue with top()/pop(), one "time/kind/job_id" entry per event.
std::vector<std::string> Drain(EventQueue* q) {
  std::vector<std::string> order;
  while (!q->empty()) {
    const SimKernelEvent& e = q->top();
    std::ostringstream os;
    os << e.time_s << "/" << SimEventKindName(e.kind) << "/" << e.job_id;
    order.push_back(os.str());
    q->pop();
  }
  return order;
}

TEST(EventQueueTest, PopsInTimeKindJobOrder) {
  EventQueue q;
  q.push({300.0, SimEventKind::kRound, -1});
  q.push({100.0, SimEventKind::kEpoch, 7});
  q.push({100.0, SimEventKind::kEpoch, 3});
  q.push({100.0, SimEventKind::kArrival, 9});
  q.push({100.0, SimEventKind::kRound, -1});
  q.push({100.0, SimEventKind::kFaultPlan, -1});
  q.push({50.0, SimEventKind::kRound, -1});
  EXPECT_EQ(q.size(), 7u);

  // t=50 round first; at t=100 arrivals before epochs (ascending job id)
  // before fault edges before the round; the t=300 round last.
  const std::vector<std::string> expected = {
      "50/round/-1",      "100/arrival/9", "100/epoch/3",  "100/epoch/7",
      "100/fault_plan/-1", "100/round/-1",  "300/round/-1",
  };
  EXPECT_EQ(Drain(&q), expected);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PopOrderIndependentOfPushOrder) {
  std::vector<SimKernelEvent> events;
  for (int j = 0; j < 5; ++j) {
    events.push_back({600.0, SimEventKind::kEpoch, j});
    events.push_back({1200.0, SimEventKind::kEpoch, j});
  }
  events.push_back({600.0, SimEventKind::kRound, -1});
  events.push_back({1200.0, SimEventKind::kRound, -1});

  EventQueue forward;
  for (const auto& e : events) {
    forward.push(e);
  }
  const std::vector<std::string> reference = Drain(&forward);
  ASSERT_EQ(reference.size(), events.size());
  EXPECT_EQ(reference.front(), "600/epoch/0");
  EXPECT_EQ(reference[5], "600/round/-1");
  EXPECT_EQ(reference.back(), "1200/round/-1");

  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    for (size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1],
                events[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int>(i) - 1))]);
    }
    EventQueue shuffled;
    for (const auto& e : events) {
      shuffled.push(e);
    }
    EXPECT_EQ(Drain(&shuffled), reference) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Simulation-level determinism.

// Fault plans for MakeEventSim: every edge on a round time (a multiple of the
// 600 s interval), or every edge inside a scheduling span.
constexpr char kRoundAlignedPlan[] =
    "crash@1800:server=2,recover=5400;slow@2400:factor=0.7,duration=1800";
constexpr char kMidSpanPlan[] =
    "slow@2100:factor=0.7,duration=1300;crash@2950:server=3,recover=7777";

std::unique_ptr<Simulator> MakeEventSim(int threads, bool faulted,
                                        double noise_sd = -1.0,
                                        const char* plan = kRoundAlignedPlan) {
  SimulatorConfig config;
  config.seed = 7;
  config.engine = SimEngine::kEvents;
  config.threads = threads;
  config.audit = true;
  config.max_sim_time_s = 2e5;
  if (noise_sd >= 0.0) {
    config.runtime_noise_sd = noise_sd;
  }
  if (faulted) {
    std::string error;
    EXPECT_TRUE(ParseFaultPlan(plan, &config.fault.plan, &error)) << error;
    config.fault.task_failure_prob = 0.02;
    config.fault.checkpoint_period_s = 3600.0;
  }
  WorkloadConfig workload;
  workload.num_jobs = 8;
  workload.arrival_window_s = 2400.0;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, BuildTestbed(),
                                     GenerateWorkload(workload, &rng));
}

// Runs `sim` to completion and checks its RunFingerprint against
// `*reference`, or makes it the reference when there is none yet.
RunMetrics RunAndMatch(Simulator* sim, std::optional<RunFingerprint>* reference,
                       int threads) {
  const RunMetrics m = sim->Run();
  const RunFingerprint fp = RunFingerprint::Of(*sim);
  std::string why;
  if (!reference->has_value()) {
    *reference = fp;
  } else {
    EXPECT_TRUE(fp.Matches(**reference, &why)) << "threads=" << threads << " diverged on " << why;
  }
  return m;
}

TEST(EventKernelTest, BitwiseIdenticalAcrossThreadsUnfaulted) {
  std::optional<RunFingerprint> reference;
  for (const int threads : {1, 2, 8}) {
    auto sim = MakeEventSim(threads, /*faulted=*/false);
    const RunMetrics m = RunAndMatch(sim.get(), &reference, threads);
    EXPECT_EQ(m.completed_jobs, m.total_jobs);
  }
}

TEST(EventKernelTest, BitwiseIdenticalAcrossThreadsFaulted) {
  std::optional<RunFingerprint> reference;
  for (const int threads : {1, 2, 8}) {
    auto sim = MakeEventSim(threads, /*faulted=*/true);
    const RunMetrics m = RunAndMatch(sim.get(), &reference, threads);
    EXPECT_GT(m.job_evictions + m.task_failures, 0)
        << "fault plan did not bite; the faulted determinism case is vacuous";
  }
}

// Edges inside spans: the slowdown re-anchors running jobs and the crash
// evicts between rounds, so the event loop stops at each edge mid-span.
TEST(EventKernelTest, BitwiseIdenticalAcrossThreadsMidSpanEdges) {
  std::optional<RunFingerprint> reference;
  for (const int threads : {1, 2, 8}) {
    auto sim = MakeEventSim(threads, /*faulted=*/true, /*noise_sd=*/-1.0, kMidSpanPlan);
    const RunMetrics m = RunAndMatch(sim.get(), &reference, threads);
    EXPECT_GT(m.job_evictions, 0) << "the mid-span crash evicted nobody";
    EXPECT_EQ(m.completed_jobs, m.total_jobs);
  }
}

// With runtime noise off, equal jobs train at equal speeds, so epoch events
// for distinct jobs land on identical timestamps and pop in job-id order;
// the run must stay deterministic across thread counts.
TEST(EventKernelTest, SameTimestampBatchesAreDeterministic) {
  std::optional<RunFingerprint> reference;
  for (const int threads : {1, 8}) {
    auto sim = MakeEventSim(threads, /*faulted=*/false, /*noise_sd=*/0.0);
    const RunMetrics m = RunAndMatch(sim.get(), &reference, threads);
    EXPECT_EQ(m.completed_jobs, m.total_jobs);
  }
}

// ---------------------------------------------------------------------------
// Exact analytic completion times.

TEST(EventKernelTest, CompletionTimesAreExactNotQuantized) {
  auto sim = MakeEventSim(1, /*faulted=*/false);
  const RunMetrics m = sim->Run();
  ASSERT_EQ(m.completed_jobs, m.total_jobs);

  std::map<int, double> arrival_s;
  std::vector<double> trace_jcts;
  bool any_off_boundary = false;
  for (const SimEvent& e : sim->trace().events()) {
    if (e.type == SimEventType::kArrival) {
      arrival_s[e.job_id] = e.time_s;
    } else if (e.type == SimEventType::kCompleted) {
      ASSERT_TRUE(arrival_s.count(e.job_id));
      trace_jcts.push_back(e.time_s - arrival_s[e.job_id]);
      const double intervals = e.time_s / 600.0;
      if (std::abs(intervals - std::round(intervals)) > 1e-9) {
        any_off_boundary = true;
      }
    }
  }
  // The recorded timestamps are the analytic epoch-boundary times, so the
  // trace reproduces every JCT exactly.
  std::vector<double> jcts = m.jcts;
  std::sort(jcts.begin(), jcts.end());
  std::sort(trace_jcts.begin(), trace_jcts.end());
  ASSERT_EQ(trace_jcts.size(), jcts.size());
  for (size_t i = 0; i < jcts.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace_jcts[i], jcts[i]);
  }
  // And they are genuinely analytic: at least one completion falls strictly
  // inside an interval (boundary-quantized stamps would all be multiples).
  EXPECT_TRUE(any_off_boundary);
}

// ---------------------------------------------------------------------------
// Edge cases.

TEST(EventKernelTest, ZeroJobsTerminatesImmediately) {
  SimulatorConfig config;
  config.seed = 3;
  config.engine = SimEngine::kEvents;
  config.max_sim_time_s = 6000.0;
  Simulator sim(config, BuildTestbed(), {});
  const RunMetrics m = sim.Run();
  EXPECT_EQ(m.total_jobs, 0);
  EXPECT_EQ(m.completed_jobs, 0);
  EXPECT_EQ(m.makespan_s, 0.0);
  EXPECT_TRUE(sim.trace().events().empty());
}

// A cluster with no usable capacity (the constructor rejects a literally
// empty server list by contract): jobs arrive but can never place, and the
// event engine must still run out the horizon without progress or crash.
TEST(EventKernelTest, UnusableClusterRunsToHorizonWithoutProgress) {
  SimulatorConfig config;
  config.seed = 3;
  config.engine = SimEngine::kEvents;
  config.max_sim_time_s = 6000.0;  // 10 intervals
  WorkloadConfig workload;
  workload.num_jobs = 3;
  workload.arrival_window_s = 600.0;
  Rng rng(config.seed ^ 0x5eedULL);
  // One server far too small for any container request.
  Simulator sim(config, BuildUniformCluster(1, Resources(0.1, 0.1, 0, 0.01)),
                GenerateWorkload(workload, &rng));
  const RunMetrics m = sim.Run();
  EXPECT_EQ(m.completed_jobs, 0);
  EXPECT_EQ(m.jcts.size(), 0u);
  // Jobs arrived (trace has their arrivals) but nothing ever scheduled.
  const auto counts = sim.trace().CountByType();
  EXPECT_EQ(counts.count(SimEventType::kScheduled), 0u);
  EXPECT_EQ(counts.at(SimEventType::kArrival), 3);
}

// ---------------------------------------------------------------------------
// Engine parity on the golden scenario suite.

int64_t CountOf(const std::map<SimEventType, int64_t>& counts,
                SimEventType type) {
  const auto it = counts.find(type);
  return it == counts.end() ? 0 : it->second;
}

TEST(EventKernelTest, GoldenScenarioParityAgainstIntervalEngine) {
  const std::vector<std::string> scenario_files = {
      OPTIMUS_SOURCE_DIR "/scenarios/fig11_testbed.json",
      OPTIMUS_SOURCE_DIR "/scenarios/poisson_hetero60.json",
      OPTIMUS_SOURCE_DIR "/scenarios/rack_outage.json",
      OPTIMUS_SOURCE_DIR "/scenarios/diurnal_heavytail.json",
  };
  // Tolerance contract from docs/ALGORITHMS.md section 16: every job that
  // completes under one engine completes under the other; average JCT within
  // 15% (the engines consume per-job RNG streams at different cadences, so
  // noise realizations — and with them convergence epochs — shift slightly).
  constexpr double kJctTolerance = 0.15;

  for (const std::string& path : scenario_files) {
    ScenarioSpec scenario;
    std::string error;
    ASSERT_TRUE(LoadScenarioFile(path, &scenario, &error)) << error;
    ASSERT_FALSE(scenario.policies.empty());
    const std::string policy = scenario.policies.front();

    struct Out {
      RunMetrics metrics;
      std::map<SimEventType, int64_t> counts;
    };
    auto run = [&](SimEngine engine) {
      SimulatorConfig config = scenario.MakeSimConfig(policy, 0);
      config.engine = engine;
      Simulator sim(config, scenario.cluster.Build(),
                    scenario.JobsForRepeat(0));
      Out out;
      out.metrics = sim.Run();
      out.counts = sim.trace().CountByType();
      return out;
    };
    const Out interval = run(SimEngine::kInterval);
    const Out events = run(SimEngine::kEvents);

    EXPECT_EQ(events.metrics.completed_jobs, interval.metrics.completed_jobs)
        << path;
    EXPECT_EQ(events.metrics.completed_jobs, events.metrics.total_jobs) << path;
    ASSERT_GT(interval.metrics.avg_jct_s, 0.0) << path;
    const double rel =
        std::abs(events.metrics.avg_jct_s - interval.metrics.avg_jct_s) /
        interval.metrics.avg_jct_s;
    EXPECT_LE(rel, kJctTolerance) << path << ": interval avg_jct="
                                  << interval.metrics.avg_jct_s
                                  << " events avg_jct="
                                  << events.metrics.avg_jct_s;
    // Lifecycle counts are engine-independent: every job arrives and
    // completes exactly once, and scripted crash/recovery edges fire exactly
    // as written. (Decision-dependent counts — scalings, pauses, evictions —
    // legitimately differ with the trajectory.)
    for (const SimEventType type :
         {SimEventType::kArrival, SimEventType::kCompleted,
          SimEventType::kServerCrash, SimEventType::kServerRecovered}) {
      EXPECT_EQ(CountOf(events.counts, type), CountOf(interval.counts, type))
          << path << " " << SimEventTypeName(type);
    }
    EXPECT_EQ(events.metrics.audit_violations, 0) << path;
    EXPECT_GT(events.metrics.events_processed, 0) << path;
    EXPECT_EQ(interval.metrics.events_processed, 0) << path;
  }
}

// Both engines feed the speed model samples at the configured batch: under a
// batch-adaptive policy with fitted estimates, a span trained at a scheduler
// batch override is converted back before it reaches the model. An engine
// that fed the raw override-batch speed would fit a surface the policy's
// batch scaling then distorts: here its average JCT lands 7.9% off the
// other engine's, against 0.8% when both convert.
TEST(EventKernelTest, BatchOverrideSamplesMatchAcrossEngines) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(OPTIMUS_SOURCE_DIR "/scenarios/batch_adaptive.json",
                               &scenario, &error))
      << error;
  auto run = [&](SimEngine engine) {
    SimulatorConfig config = scenario.MakeSimConfig("goodput", 0);
    config.engine = engine;
    config.oracle_estimates = false;
    Simulator sim(config, scenario.cluster.Build(), scenario.JobsForRepeat(0));
    return sim.Run();
  };
  const RunMetrics interval = run(SimEngine::kInterval);
  const RunMetrics events = run(SimEngine::kEvents);
  ASSERT_EQ(interval.completed_jobs, interval.total_jobs);
  ASSERT_EQ(events.completed_jobs, events.total_jobs);
  ASSERT_GT(interval.avg_jct_s, 0.0);
  const double rel =
      std::abs(events.avg_jct_s - interval.avg_jct_s) / interval.avg_jct_s;
  EXPECT_LE(rel, 0.02) << "interval avg_jct=" << interval.avg_jct_s
                       << " events avg_jct=" << events.avg_jct_s;
}

// ---------------------------------------------------------------------------
// No refit of a finished job.

struct FitCounts {
  double conv = 0.0;
  double speed = 0.0;
};

FitCounts ReadFitCounts(const Simulator& sim) {
  auto counter = [&sim](const char* name) {
    const Metric* m = sim.registry().Find(name);
    EXPECT_NE(m, nullptr) << name;
    return m == nullptr ? 0.0 : static_cast<const Counter*>(m)->value();
  };
  return {counter("optimus_conv_fits_total"),
          counter("optimus_speedmodel_fits_total")};
}

// Workload whose trajectory is the same on both engines: no runtime noise
// (set in the config) and noise-free loss curves, so both engines see the
// same epoch losses and converge at the same epochs despite drawing from the
// jobs' RNG streams at different cadences.
std::vector<JobSpec> NoiseFreeJobs(int num_jobs, double arrival_window_s) {
  static std::vector<ModelSpec> noise_free = [] {
    std::vector<ModelSpec> zoo = GetModelZoo();
    for (ModelSpec& m : zoo) {
      m.loss.noise_sd = 0.0;
    }
    return zoo;
  }();
  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.arrival_window_s = arrival_window_s;
  Rng rng(0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &rng);
  for (JobSpec& spec : specs) {
    for (const ModelSpec& m : noise_free) {
      if (m.name == spec.model->name) {
        spec.model = &m;
      }
    }
  }
  return specs;
}

// One job stepped a round at a time on each engine. Every round whose span
// the job trained through and survived refits each of its models once; the
// round whose span it completed in refits nothing. Both engines walk the same
// trajectory here, so they report the same fit counters round by round.
TEST(EventKernelTest, CompletedJobIsNotRefitOnEitherEngine) {
  std::vector<JobSpec> specs = NoiseFreeJobs(1, 1.0);
  ASSERT_EQ(specs.size(), 1u);
  specs.front().arrival_time_s = 0.0;  // both engines' first round
  const int id = specs.front().id;

  struct Round {
    FitCounts delta;
    JobState state;
  };
  auto run = [&](SimEngine engine) {
    SimulatorConfig config;
    config.seed = 7;
    config.engine = engine;
    config.runtime_noise_sd = 0.0;
    Simulator sim(config, BuildTestbed(), specs);
    std::vector<Round> rounds;
    while (rounds.empty() || rounds.back().state != JobState::kCompleted) {
      const FitCounts before = ReadFitCounts(sim);
      sim.AdvanceTo(static_cast<double>(rounds.size() + 1) * config.interval_s);
      const FitCounts after = ReadFitCounts(sim);
      rounds.push_back({{after.conv - before.conv, after.speed - before.speed},
                        sim.job(id).state});
      if (rounds.size() > 100) {
        ADD_FAILURE() << "job never completed";
        break;
      }
    }
    return rounds;
  };
  const std::vector<Round> interval = run(SimEngine::kInterval);
  const std::vector<Round> events = run(SimEngine::kEvents);

  // The job trains through at least two spans before the one it completes in.
  ASSERT_GE(interval.size(), 3u);
  for (size_t r = 1; r + 1 < interval.size(); ++r) {
    EXPECT_EQ(interval[r].delta.conv, 1.0) << "round " << r;
    EXPECT_EQ(interval[r].delta.speed, 1.0) << "round " << r;
  }
  EXPECT_EQ(interval.back().delta.conv, 0.0);
  EXPECT_EQ(interval.back().delta.speed, 0.0);

  ASSERT_EQ(events.size(), interval.size());
  for (size_t r = 0; r < events.size(); ++r) {
    EXPECT_EQ(events[r].delta.conv, interval[r].delta.conv) << "round " << r;
    EXPECT_EQ(events[r].delta.speed, interval[r].delta.speed) << "round " << r;
  }
}

}  // namespace
}  // namespace optimus
