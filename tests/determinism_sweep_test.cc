// The determinism sweep: every committed scenario (scenarios/*.json and
// scenarios/smoke/*.json, listed when the test binary starts, so a new file
// is swept with no edit here) x every policy in its grid x both engines is
// one test. Each runs the cell at 1 thread as the reference, then at 2
// threads, at 8 threads, and at 2 threads with the no-op and output-only
// knobs set together (shards 8, streaming admission, hash-only trace,
// observability off). Every run must match the reference's RunFingerprint
// (src/sim/run_fingerprint.h) bitwise; the reference must complete every job with
// zero audit violations and, on a scenario with a fault plan, record a fault.
//
// Also here: the fingerprint's own coverage (each field, flipped alone, fails
// Matches and is named), and the streaming knob on hand-made configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

namespace optimus {
namespace {

std::string ScenarioPath(const std::string& name) {
  return std::string(OPTIMUS_SOURCE_DIR) + "/scenarios/" + name;
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

struct SweepCell {
  std::string scenario;  // path under scenarios/, e.g. "smoke/grid_a.json"
  std::string policy;    // empty when the scenario failed to load
  SimEngine engine = SimEngine::kInterval;
};

// "scenario policy engine", for gtest's test listing.
void PrintTo(const SweepCell& cell, std::ostream* os) {
  *os << cell.scenario << " " << cell.policy << " " << SimEngineName(cell.engine);
}

// Every committed scenario file, in path order, x its policy grid x both
// engines. A file that does not load still yields one cell, which fails
// naming the parse error.
std::vector<SweepCell> CommittedCells() {
  std::vector<std::string> files;
  for (const char* dir : {"", "smoke/"}) {
    for (const auto& entry : std::filesystem::directory_iterator(ScenarioPath(dir))) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(dir + entry.path().filename().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<SweepCell> cells;
  for (const std::string& file : files) {
    ScenarioSpec scenario;
    std::string error;
    std::vector<std::string> policies = {""};
    if (LoadScenarioFile(ScenarioPath(file), &scenario, &error)) {
      policies = scenario.policies;
    }
    for (const std::string& policy : policies) {
      for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
        cells.push_back({file, policy, engine});
      }
    }
  }
  return cells;
}

std::string CellName(const ::testing::TestParamInfo<SweepCell>& info) {
  std::string name = info.param.scenario.substr(0, info.param.scenario.rfind('.')) +
                     "_" + (info.param.policy.empty() ? "unloadable" : info.param.policy) +
                     "_" + SimEngineName(info.param.engine);
  std::replace_if(
      name.begin(), name.end(), [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
      '_');
  return name;
}

class DeterminismSweep : public ::testing::TestWithParam<SweepCell> {};

TEST_P(DeterminismSweep, MatchesOneThreadReference) {
  const SweepCell& cell = GetParam();
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath(cell.scenario), &scenario, &error)) << error;

  auto run = [&](const std::function<void(SimulatorConfig*)>& set) {
    SimulatorConfig config = scenario.MakeSimConfig(cell.policy);
    config.engine = cell.engine;
    config.threads = 1;
    config.audit = true;
    set(&config);
    Simulator sim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
    sim.Run();
    return RunFingerprint::Of(sim);
  };
  const RunFingerprint reference = run([](SimulatorConfig*) {});
  const RunMetrics& m = reference.metrics;
  EXPECT_EQ(m.completed_jobs, m.total_jobs);
  EXPECT_GT(m.audit_checks, 0);
  EXPECT_EQ(m.audit_violations, 0);
  if (scenario.MakeSimConfig(cell.policy).fault.enabled()) {
    EXPECT_GT(m.server_crashes + m.task_failures, 0) << "the fault plan never fired";
  }

  const std::pair<const char*, std::function<void(SimulatorConfig*)>> variants[] = {
      {"threads=2", [](SimulatorConfig* c) { c->threads = 2; }},
      {"threads=8", [](SimulatorConfig* c) { c->threads = 8; }},
      {"threads=2 shards=8 streaming hash-only obs-off",
       [](SimulatorConfig* c) {
         c->threads = 2;
         c->shards = 8;
         c->streaming = true;
         c->trace_hash_only = true;
         c->obs.enabled = false;
       }},
  };
  for (const auto& [label, set] : variants) {
    std::string why;
    EXPECT_TRUE(run(set).Matches(reference, &why)) << label << " diverged on " << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Committed, DeterminismSweep, ::testing::ValuesIn(CommittedCells()),
                         CellName);

// ---------------------------------------------------------------------------
// RunFingerprint coverage
// ---------------------------------------------------------------------------

// Matches compares RunMetrics and TimelinePoint field by field; a field added
// to either must join Matches and the table below. These sizes (LP64) trip
// when one is.
static_assert(sizeof(void*) != 8 || sizeof(RunMetrics) == 224,
              "RunMetrics changed: update RunFingerprint::Matches and this test");
static_assert(sizeof(void*) != 8 || sizeof(TimelinePoint) == 32,
              "TimelinePoint changed: update RunFingerprint::Matches and this test");

RunFingerprint SampleFingerprint() {
  RunFingerprint fp;
  RunMetrics& m = fp.metrics;
  m.total_jobs = 3;
  m.completed_jobs = 2;
  m.jobs_killed = 1;
  m.jcts = {100.5, 250.25};
  m.avg_jct_s = 175.375;
  m.makespan_s = 400.0;
  m.scaling_overhead_fraction = 0.125;
  m.straggler_replacements = 4;
  m.total_scalings = 5;
  m.server_crashes = 6;
  m.server_recoveries = 7;
  m.task_failures = 8;
  m.job_evictions = 9;
  m.backoff_deferrals = 10;
  m.checkpoints_taken = 11;
  m.rolled_back_steps = 12.5;
  m.audit_checks = 13;
  m.audit_violations = 0;
  m.events_processed = 14;
  m.timeline = {{0.0, 4, 50.0, 25.0}, {600.0, 6, 60.0, 30.0}};
  fp.trace_digest = 0x0123456789abcdefULL;
  fp.trace_records = 2;
  fp.trace_counts = {{SimEventType::kArrival, 1}, {SimEventType::kCompleted, 1}};
  fp.net_solves = 15;
  fp.net_flows = 16;
  fp.net_contended_flows = 17;
  fp.events = {{1.0, SimEventType::kArrival, 0, 0, 0, ""},
               {2.0, SimEventType::kCompleted, 0, 1, 2, "epochs=3"}};
  return fp;
}

TEST(RunFingerprintTest, EachFieldFlippedAloneFailsAndIsNamed) {
  const RunFingerprint base = SampleFingerprint();
  std::string why;
  ASSERT_TRUE(base.Matches(base, &why)) << why;

  const std::pair<const char*, std::function<void(RunFingerprint*)>> flips[] = {
      {"total_jobs", [](RunFingerprint* f) { ++f->metrics.total_jobs; }},
      {"completed_jobs", [](RunFingerprint* f) { ++f->metrics.completed_jobs; }},
      {"jobs_killed", [](RunFingerprint* f) { ++f->metrics.jobs_killed; }},
      {"jcts.size", [](RunFingerprint* f) { f->metrics.jcts.push_back(1.0); }},
      {"jcts[1]", [](RunFingerprint* f) { f->metrics.jcts[1] += 1e-9; }},
      {"avg_jct_s", [](RunFingerprint* f) { f->metrics.avg_jct_s += 1e-9; }},
      {"makespan_s", [](RunFingerprint* f) { f->metrics.makespan_s += 1e-9; }},
      {"scaling_overhead_fraction",
       [](RunFingerprint* f) { f->metrics.scaling_overhead_fraction += 1e-9; }},
      {"straggler_replacements", [](RunFingerprint* f) { ++f->metrics.straggler_replacements; }},
      {"total_scalings", [](RunFingerprint* f) { ++f->metrics.total_scalings; }},
      {"server_crashes", [](RunFingerprint* f) { ++f->metrics.server_crashes; }},
      {"server_recoveries", [](RunFingerprint* f) { ++f->metrics.server_recoveries; }},
      {"task_failures", [](RunFingerprint* f) { ++f->metrics.task_failures; }},
      {"job_evictions", [](RunFingerprint* f) { ++f->metrics.job_evictions; }},
      {"backoff_deferrals", [](RunFingerprint* f) { ++f->metrics.backoff_deferrals; }},
      {"checkpoints_taken", [](RunFingerprint* f) { ++f->metrics.checkpoints_taken; }},
      {"rolled_back_steps", [](RunFingerprint* f) { f->metrics.rolled_back_steps += 1e-9; }},
      {"audit_checks", [](RunFingerprint* f) { ++f->metrics.audit_checks; }},
      {"audit_violations", [](RunFingerprint* f) { ++f->metrics.audit_violations; }},
      {"events_processed", [](RunFingerprint* f) { ++f->metrics.events_processed; }},
      {"timeline.size", [](RunFingerprint* f) { f->metrics.timeline.pop_back(); }},
      {"timeline[1].time_s", [](RunFingerprint* f) { f->metrics.timeline[1].time_s += 1e-9; }},
      {"timeline[1].running_tasks",
       [](RunFingerprint* f) { ++f->metrics.timeline[1].running_tasks; }},
      {"timeline[1].worker_cpu_util_pct",
       [](RunFingerprint* f) { f->metrics.timeline[1].worker_cpu_util_pct += 1e-9; }},
      {"timeline[1].ps_cpu_util_pct",
       [](RunFingerprint* f) { f->metrics.timeline[1].ps_cpu_util_pct += 1e-9; }},
      {"trace_digest", [](RunFingerprint* f) { f->trace_digest ^= 1; }},
      {"trace_records", [](RunFingerprint* f) { ++f->trace_records; }},
      {"trace_counts[completed]",
       [](RunFingerprint* f) { ++f->trace_counts[SimEventType::kCompleted]; }},
      {"trace_counts[server_crash]",
       [](RunFingerprint* f) { f->trace_counts[SimEventType::kServerCrash] = 1; }},
      {"net_solves", [](RunFingerprint* f) { ++f->net_solves; }},
      {"net_flows", [](RunFingerprint* f) { ++f->net_flows; }},
      {"net_contended_flows", [](RunFingerprint* f) { ++f->net_contended_flows; }},
      {"events.size", [](RunFingerprint* f) { f->events.pop_back(); }},
      {"events[1].time_s", [](RunFingerprint* f) { f->events[1].time_s += 1e-9; }},
      {"events[1].type", [](RunFingerprint* f) { f->events[1].type = SimEventType::kKilled; }},
      {"events[1].job_id", [](RunFingerprint* f) { ++f->events[1].job_id; }},
      {"events[1].num_ps", [](RunFingerprint* f) { ++f->events[1].num_ps; }},
      {"events[1].num_workers", [](RunFingerprint* f) { ++f->events[1].num_workers; }},
      {"events[1].detail", [](RunFingerprint* f) { f->events[1].detail += "x"; }},
  };
  for (const auto& [field, flip] : flips) {
    RunFingerprint flipped = base;
    flip(&flipped);
    why.clear();
    EXPECT_FALSE(flipped.Matches(base, &why)) << field;
    EXPECT_EQ(why, field);
    why.clear();
    EXPECT_FALSE(base.Matches(flipped, &why)) << field;
    EXPECT_EQ(why, field);
  }
}

TEST(RunFingerprintTest, DoublesCompareByBitPattern) {
  RunFingerprint a = SampleFingerprint();
  RunFingerprint b = a;
  a.metrics.rolled_back_steps = 0.0;
  b.metrics.rolled_back_steps = -0.0;
  std::string why;
  EXPECT_FALSE(a.Matches(b, &why));
  EXPECT_EQ(why, "rolled_back_steps");
}

TEST(RunFingerprintTest, WallTimesAndAnUnstoredEventListAreNotCompared) {
  const RunFingerprint base = SampleFingerprint();
  RunFingerprint other = base;
  other.metrics.wall_faults_s = 1.0;
  other.metrics.wall_schedule_s = 2.0;
  other.metrics.wall_advance_s = 3.0;
  other.metrics.wall_audit_s = 4.0;
  other.metrics.wall_events_s = 5.0;
  // A hash-only trace stores no events; its digest, count and per-type
  // counts still compare.
  other.events.clear();
  std::string why;
  EXPECT_TRUE(other.Matches(base, &why)) << why;
  EXPECT_TRUE(base.Matches(other, &why)) << why;
}

// ---------------------------------------------------------------------------
// Streaming admission on hand-made configurations
// ---------------------------------------------------------------------------

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
      sim.Run();
      EXPECT_TRUE(sim.job(killed).killed);
      EXPECT_EQ(sim.job(late.id).state, JobState::kCompleted);
      return RunFingerprint::Of(sim);
    };
    const RunFingerprint off = run(false);
    EXPECT_EQ(off.metrics.total_jobs, 7);
    EXPECT_EQ(off.metrics.jobs_killed, 1);
    EXPECT_EQ(off.metrics.audit_violations, 0);
    std::string why;
    EXPECT_TRUE(run(true).Matches(off, &why))
        << "streaming " << SimEngineName(engine) << " diverged on " << why;
  }
}

TEST(StreamingAdmissionTest, RetiresCompletedJobsAndKeepsAccounting) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("fig11_testbed.json"), &scenario, &error))
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

}  // namespace
}  // namespace optimus
