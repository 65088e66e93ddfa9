// Output invariance: thread count and the hash-only trace must leave a run's
// outputs bitwise unchanged against the one-thread / storage counterparts,
// on the golden scenarios (including the committed fault plans). The
// scenario-v1 `shards` and `streaming` knobs are validated no-ops, and stay
// pinned as ones.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

namespace optimus {
namespace {

std::string ScenarioPath(const std::string& name) {
  return std::string(OPTIMUS_SOURCE_DIR) + "/scenarios/" + name;
}

// Everything a run computes, for bitwise comparison across configurations.
struct RunOutputs {
  RunMetrics metrics;
  uint64_t trace_digest = 0;
  size_t trace_records = 0;
  std::map<SimEventType, int64_t> trace_counts;
  int64_t audit_checks = 0;
  int64_t audit_violations = 0;
};

RunOutputs RunScenario(const ScenarioSpec& scenario, int shards, int threads,
                       SimEngine engine, bool streaming = false,
                       bool hash_only = false) {
  SimulatorConfig config = scenario.MakeSimConfig("optimus");
  config.shards = shards;
  config.threads = threads;
  config.engine = engine;
  config.streaming = streaming;
  config.trace_hash_only = hash_only;
  config.audit = true;
  Simulator sim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
  RunOutputs out;
  out.metrics = sim.Run();
  out.trace_digest = sim.trace().digest();
  out.trace_records = sim.trace().size();
  out.trace_counts = sim.trace().CountByType();
  out.audit_checks = out.metrics.audit_checks;
  out.audit_violations = out.metrics.audit_violations;
  return out;
}

void ExpectBitwiseEqual(const RunOutputs& a, const RunOutputs& b,
                        const std::string& label) {
  EXPECT_EQ(a.metrics.completed_jobs, b.metrics.completed_jobs) << label;
  EXPECT_EQ(a.metrics.jcts, b.metrics.jcts) << label;
  EXPECT_EQ(a.metrics.avg_jct_s, b.metrics.avg_jct_s) << label;
  EXPECT_EQ(a.metrics.makespan_s, b.metrics.makespan_s) << label;
  EXPECT_EQ(a.metrics.total_scalings, b.metrics.total_scalings) << label;
  EXPECT_EQ(a.metrics.straggler_replacements, b.metrics.straggler_replacements)
      << label;
  EXPECT_EQ(a.metrics.job_evictions, b.metrics.job_evictions) << label;
  EXPECT_EQ(a.metrics.task_failures, b.metrics.task_failures) << label;
  EXPECT_EQ(a.metrics.rolled_back_steps, b.metrics.rolled_back_steps) << label;
  EXPECT_EQ(a.metrics.events_processed, b.metrics.events_processed) << label;
  EXPECT_EQ(a.audit_violations, b.audit_violations) << label;
  EXPECT_EQ(a.trace_digest, b.trace_digest) << label;
  EXPECT_EQ(a.trace_records, b.trace_records) << label;
}

// ---------------------------------------------------------------------------
// End-to-end thread invariance on the golden scenarios
// ---------------------------------------------------------------------------

class GoldenScenarioInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenScenarioInvariance, ShardsAndThreadsAreBitwiseInvariant) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath(GetParam()), &scenario, &error))
      << error;

  // The last cell sets the no-op shards knob.
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    const RunOutputs reference = RunScenario(scenario, 1, 1, engine);
    EXPECT_EQ(reference.audit_violations, 0);
    for (const auto& [shards, threads] :
         std::vector<std::pair<int, int>>{{1, 2}, {1, 8}, {8, 1}}) {
      const RunOutputs run = RunScenario(scenario, shards, threads, engine);
      ExpectBitwiseEqual(run, reference,
                         std::string(GetParam()) + " " + SimEngineName(engine) +
                             " shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads));
    }
  }
}

// The four golden scenarios; rack_outage carries the committed fault plan
// (a scripted rack outage + task failures), scale_smoke a rack outage plus a
// slowdown burst under streaming admission.
INSTANTIATE_TEST_SUITE_P(Golden, GoldenScenarioInvariance,
                         ::testing::Values("fig11_testbed.json",
                                           "rack_outage.json",
                                           "poisson_hetero60.json",
                                           "diurnal_heavytail.json"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

// ---------------------------------------------------------------------------
// Streaming admission parity
// ---------------------------------------------------------------------------

TEST(StreamingAdmissionTest, BatchAndStreamingAreBitwiseIdentical) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("rack_outage.json"), &scenario,
                               &error))
      << error;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    const RunOutputs batch =
        RunScenario(scenario, 1, 2, engine, /*streaming=*/false);
    const RunOutputs streaming =
        RunScenario(scenario, 1, 2, engine, /*streaming=*/true);
    ExpectBitwiseEqual(streaming, batch,
                       std::string("streaming ") + SimEngineName(engine));
  }
}

// `streaming` is a validated no-op: every run admits jobs through one pending
// queue in (arrival, order key) order. Unsorted specs, an online submission
// that arrives between queued input specs, and a kill before arrival take
// every order-key path; the knob must not move a bit on either engine.
TEST(StreamingAdmissionTest, KnobIsANoOpForUnsortedSpecsSubmitsAndKills) {
  std::vector<Server> servers = BuildUniformCluster(4, Resources(16, 80, 0, 1));
  WorkloadConfig workload;
  workload.num_jobs = 6;
  Rng rng(3);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &rng);
  ASSERT_EQ(specs.size(), 6u);
  std::swap(specs[0], specs[5]);  // the last arrival now comes first
  ASSERT_GT(specs[0].arrival_time_s, specs[1].arrival_time_s);
  const int killed = specs[0].id;
  JobSpec late = specs[1];
  late.id = 99;
  late.arrival_time_s = 0.5 * (specs[1].arrival_time_s + specs[0].arrival_time_s);

  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    auto run = [&](bool streaming) {
      SimulatorConfig config;
      config.engine = engine;
      config.threads = 2;
      config.streaming = streaming;
      config.audit = true;
      Simulator sim(config, servers, specs);
      std::string why;
      EXPECT_TRUE(sim.SubmitJob(late, &why)) << why;
      EXPECT_TRUE(sim.KillJob(killed, &why)) << why;
      RunOutputs out;
      out.metrics = sim.Run();
      out.trace_digest = sim.trace().digest();
      out.trace_records = sim.trace().size();
      out.audit_violations = out.metrics.audit_violations;
      EXPECT_TRUE(sim.job(killed).killed);
      EXPECT_EQ(sim.job(late.id).state, JobState::kCompleted);
      return out;
    };
    const RunOutputs off = run(false);
    EXPECT_EQ(off.metrics.total_jobs, 7);
    EXPECT_EQ(off.metrics.jobs_killed, 1);
    EXPECT_EQ(off.audit_violations, 0);
    ExpectBitwiseEqual(run(true), off, std::string("streaming ") + SimEngineName(engine));
  }
}

TEST(StreamingAdmissionTest, RetiresCompletedJobsAndKeepsAccounting) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("fig11_testbed.json"), &scenario,
                               &error))
      << error;
  SimulatorConfig config = scenario.MakeSimConfig("optimus");
  config.streaming = true;
  config.audit = true;
  Simulator sim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
  const RunMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.audit_violations, 0);
  EXPECT_GT(metrics.completed_jobs, 0);
  // Completed jobs were retired: their runtime slots are gone but the
  // aggregate metrics still count them.
  EXPECT_EQ(static_cast<int>(metrics.jcts.size()), metrics.completed_jobs);
}

// ---------------------------------------------------------------------------
// Hash-only trace mode
// ---------------------------------------------------------------------------

TEST(TraceHashOnlyTest, DigestMatchesStorageMode) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("rack_outage.json"), &scenario,
                               &error))
      << error;
  const RunOutputs stored = RunScenario(scenario, 1, 1, SimEngine::kEvents,
                                        /*streaming=*/false,
                                        /*hash_only=*/false);
  const RunOutputs hashed = RunScenario(scenario, 1, 1, SimEngine::kEvents,
                                        /*streaming=*/false,
                                        /*hash_only=*/true);
  EXPECT_EQ(stored.trace_digest, hashed.trace_digest);
  EXPECT_EQ(stored.trace_records, hashed.trace_records);
}

// Per-type counts are kept as records arrive, so a hash-only trace reports
// the same CountByType() as a stored one — faults, evictions and all.
TEST(TraceHashOnlyTest, CountByTypeMatchesStorageMode) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("rack_outage.json"), &scenario,
                               &error))
      << error;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    const RunOutputs stored = RunScenario(scenario, 1, 1, engine,
                                          /*streaming=*/false,
                                          /*hash_only=*/false);
    const RunOutputs hashed = RunScenario(scenario, 1, 1, engine,
                                          /*streaming=*/false,
                                          /*hash_only=*/true);
    EXPECT_GT(stored.trace_counts.count(SimEventType::kServerCrash), 0u)
        << SimEngineName(engine);
    EXPECT_EQ(stored.trace_counts, hashed.trace_counts) << SimEngineName(engine);
  }
}

TEST(TraceHashOnlyTest, HashModeStoresNothing) {
  EventTrace trace;
  trace.set_hash_only(true);
  trace.Record(1.0, SimEventType::kArrival, 7);
  trace.Record(2.0, SimEventType::kCompleted, 7, 1, 2,
               EventDetail(EventDetailKind::kEpochs, 11));
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_NE(trace.digest(), 14695981039346656037ULL);  // moved off the basis

  EventTrace stored;
  stored.Record(1.0, SimEventType::kArrival, 7);
  stored.Record(2.0, SimEventType::kCompleted, 7, 1, 2,
                EventDetail(EventDetailKind::kEpochs, 11));
  EXPECT_EQ(stored.digest(), trace.digest());
  EXPECT_EQ(stored.events().size(), 2u);
}

}  // namespace
}  // namespace optimus
