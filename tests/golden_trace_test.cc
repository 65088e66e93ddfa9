// Golden-trace regression: small fixed workloads, run under fixed fault
// plans, must reproduce committed metrics snapshots bit for bit. Any change
// to scheduling, fault handling, RNG consumption order, or metrics
// accounting shows up here as a readable diff instead of a silent drift.
// The second golden runs a time-varying background share under rack-aware
// placement on both engines, at 1 and 4 threads. The third runs the events
// engine with fault-plan edges inside scheduling spans, at 1 and 4 threads.
//
// Regenerating the goldens after an INTENDED behavior change:
//
//   OPTIMUS_REGEN_GOLDEN=1 ./build/tests/golden_trace_test
//
// then commit tests/golden/fault_trace.json, background_trace.json and
// midspan_trace.json together with the change that moved them. The snapshot
// prints doubles with 17 significant digits, so it round-trips exactly; the RNG is std::mt19937_64 with libstdc++'s
// distributions, which is stable across runs and thread counts on the
// toolchain CI uses (a different standard library may legitimately produce a
// different golden).

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/workload.h"

#ifndef OPTIMUS_SOURCE_DIR
#error "OPTIMUS_SOURCE_DIR must be defined to locate the golden file"
#endif

namespace optimus {
namespace {

constexpr char kGoldenPath[] = OPTIMUS_SOURCE_DIR "/tests/golden/fault_trace.json";
constexpr char kBackgroundGoldenPath[] =
    OPTIMUS_SOURCE_DIR "/tests/golden/background_trace.json";
constexpr char kMidSpanGoldenPath[] =
    OPTIMUS_SOURCE_DIR "/tests/golden/midspan_trace.json";

// The pinned scenario: 6 jobs on the paper's testbed with a crash, a rack
// outage, a slowdown burst, task failures, and periodic checkpoints.
std::unique_ptr<Simulator> MakePinnedScenario() {
  SimulatorConfig config;
  config.seed = 7;
  config.max_sim_time_s = 2e5;
  std::string error;
  // Recoveries land well inside the run (makespan ~8000 s) so the snapshot
  // pins the full crash -> evict -> recover -> reallocate cycle.
  const bool ok = ParseFaultPlan(
      "crash@1800:server=2,recover=5400;"
      "rack@4200:servers=6-8,recover=6600;"
      "slow@2400:factor=0.7,duration=1800",
      &config.fault.plan, &error);
  EXPECT_TRUE(ok) << error;
  config.fault.task_failure_prob = 0.02;
  config.fault.checkpoint_period_s = 3600.0;
  config.audit = true;

  WorkloadConfig workload;
  workload.num_jobs = 6;
  workload.arrival_window_s = 2400.0;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, BuildTestbed(),
                                     GenerateWorkload(workload, &rng));
}

std::string Snapshot(const RunMetrics& m, const EventTrace& trace) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\n";
  os << "  \"total_jobs\": " << m.total_jobs << ",\n";
  os << "  \"completed_jobs\": " << m.completed_jobs << ",\n";
  os << "  \"jcts_s\": [";
  for (size_t i = 0; i < m.jcts.size(); ++i) {
    os << (i == 0 ? "" : ", ") << m.jcts[i];
  }
  os << "],\n";
  os << "  \"avg_jct_s\": " << m.avg_jct_s << ",\n";
  os << "  \"makespan_s\": " << m.makespan_s << ",\n";
  os << "  \"scaling_overhead_fraction\": " << m.scaling_overhead_fraction << ",\n";
  os << "  \"total_scalings\": " << m.total_scalings << ",\n";
  os << "  \"straggler_replacements\": " << m.straggler_replacements << ",\n";
  os << "  \"server_crashes\": " << m.server_crashes << ",\n";
  os << "  \"server_recoveries\": " << m.server_recoveries << ",\n";
  os << "  \"task_failures\": " << m.task_failures << ",\n";
  os << "  \"job_evictions\": " << m.job_evictions << ",\n";
  os << "  \"backoff_deferrals\": " << m.backoff_deferrals << ",\n";
  os << "  \"checkpoints_taken\": " << m.checkpoints_taken << ",\n";
  os << "  \"rolled_back_steps\": " << m.rolled_back_steps << ",\n";
  os << "  \"audit_checks\": " << m.audit_checks << ",\n";
  os << "  \"audit_violations\": " << m.audit_violations << ",\n";
  os << "  \"events\": {";
  bool first = true;
  for (const auto& [type, count] : trace.CountByType()) {
    os << (first ? "" : ", ") << "\"" << SimEventTypeName(type) << "\": " << count;
    first = false;
  }
  os << "}\n";
  os << "}\n";
  return os.str();
}

// A time-varying background reservation under rack-aware placement: every
// round pre-occupies a different share of each server, two servers crash and
// recover, and jobs too large for one 8-server rack spill across racks. The
// cluster mixes two server sizes so free-CPU ties and rack totals vary.
std::unique_ptr<Simulator> MakeBackgroundScenario(SimEngine engine, int threads) {
  SimulatorConfig config;
  config.seed = 11;
  config.engine = engine;
  config.threads = threads;
  config.max_sim_time_s = 2e5;
  std::string error;
  EXPECT_TRUE(ApplySchedulerPolicy("optimus_rack", &config, &error)) << error;
  config.rack_size = 8;
  config.background_share = 0.5;
  config.background_period_s = 5400.0;
  EXPECT_TRUE(ParseFaultPlan("crash@1800:server=3,recover=6000;"
                             "crash@4800:server=17,recover=9600",
                             &config.fault.plan, &error))
      << error;
  config.audit = true;

  std::vector<Server> servers;
  for (int s = 0; s < 32; ++s) {
    servers.emplace_back(s, s % 3 == 0 ? Resources(12, 64, 0, 1) : Resources(16, 80, 0, 1));
  }
  WorkloadConfig workload;
  workload.num_jobs = 48;
  workload.arrival_window_s = 9000.0;
  workload.target_steps_per_epoch = 50;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, std::move(servers),
                                     GenerateWorkload(workload, &rng));
}

// Both engines' snapshots plus each run's full-trace digest, in one object.
std::string BackgroundSnapshot(int threads) {
  std::ostringstream os;
  os << "{\n";
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    std::unique_ptr<Simulator> sim = MakeBackgroundScenario(engine, threads);
    const RunMetrics metrics = sim->Run();
    std::string snapshot = Snapshot(metrics, sim->trace());
    snapshot.pop_back();
    os << (engine == SimEngine::kInterval ? "" : ",\n") << "\"" << SimEngineName(engine)
       << "\": " << snapshot << ",\n\"" << SimEngineName(engine)
       << "_trace\": {\"records\": " << sim->trace().size() << ", \"digest\": \"" << std::hex
       << sim->trace().digest() << std::dec << "\"}";
  }
  os << "\n}\n";
  return os.str();
}

// An events-engine run whose fault-plan edges fall inside scheduling spans
// (rounds are every 600 s): a slowdown starts at 2100 and ends at 3400, and a
// crash at 2950 recovers at 7777, so the kernel settles, evicts and re-anchors
// jobs between rounds. Task failures and checkpoints are on, as in the pinned
// scenario above.
std::unique_ptr<Simulator> MakeMidSpanScenario(int threads) {
  SimulatorConfig config;
  config.seed = 7;
  config.engine = SimEngine::kEvents;
  config.threads = threads;
  config.max_sim_time_s = 2e5;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan("slow@2100:factor=0.7,duration=1300;"
                             "crash@2950:server=3,recover=7777",
                             &config.fault.plan, &error))
      << error;
  config.fault.task_failure_prob = 0.02;
  config.fault.checkpoint_period_s = 3600.0;
  config.audit = true;

  WorkloadConfig workload;
  workload.num_jobs = 8;
  workload.arrival_window_s = 2400.0;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, BuildTestbed(),
                                     GenerateWorkload(workload, &rng));
}

// The run's snapshot plus what the event loop itself decides: the processed
// event count, the final clock and the full-trace digest.
std::string MidSpanSnapshot(int threads) {
  std::unique_ptr<Simulator> sim = MakeMidSpanScenario(threads);
  const RunMetrics metrics = sim->Run();
  std::string snapshot = Snapshot(metrics, sim->trace());
  snapshot.pop_back();
  std::ostringstream os;
  os << std::setprecision(17) << "{\n\"events\": " << snapshot
     << ",\n\"events_processed\": " << metrics.events_processed
     << ",\n\"now_s\": " << sim->now_s() << ",\n\"trace\": {\"records\": "
     << sim->trace().size() << ", \"digest\": \"" << std::hex << sim->trace().digest()
     << std::dec << "\"}\n}\n";
  return os.str();
}

TEST(GoldenTraceTest, FaultedRunMatchesCommittedSnapshot) {
  std::unique_ptr<Simulator> sim = MakePinnedScenario();
  const RunMetrics metrics = sim->Run();
  const std::string actual = Snapshot(metrics, sim->trace());

  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(kGoldenPath);
    ASSERT_TRUE(os.good()) << "cannot write " << kGoldenPath;
    os << actual;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good())
      << "missing golden " << kGoldenPath
      << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "metrics drifted from the committed golden; if the change is "
         "intended, regenerate with OPTIMUS_REGEN_GOLDEN=1 and commit the "
         "new tests/golden/fault_trace.json";
}

// The pinned scenario itself must be healthy: faults actually fire and the
// auditor stays clean, so the golden keeps guarding real behavior.
TEST(GoldenTraceTest, PinnedScenarioExercisesTheFaultPath) {
  std::unique_ptr<Simulator> sim = MakePinnedScenario();
  const RunMetrics metrics = sim->Run();
  EXPECT_EQ(metrics.server_crashes, 4);
  EXPECT_EQ(metrics.server_recoveries, 4);
  EXPECT_GT(metrics.task_failures, 0);
  EXPECT_GT(metrics.checkpoints_taken, 0);
  EXPECT_GT(metrics.audit_checks, 0);
  EXPECT_EQ(metrics.audit_violations, 0) << sim->auditor().Summary();
}

TEST(GoldenTraceTest, BackgroundShareRunMatchesCommittedSnapshot) {
  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(kBackgroundGoldenPath);
    ASSERT_TRUE(os.good()) << "cannot write " << kBackgroundGoldenPath;
    os << BackgroundSnapshot(/*threads=*/1);
    GTEST_SKIP() << "regenerated " << kBackgroundGoldenPath;
  }
  std::ifstream in(kBackgroundGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden " << kBackgroundGoldenPath
                         << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string golden = contents.str();
  for (const int threads : {1, 4}) {
    EXPECT_EQ(BackgroundSnapshot(threads), golden)
        << "threads=" << threads << ": the background-share run drifted from "
        << kBackgroundGoldenPath;
  }
}

TEST(GoldenTraceTest, EventsMidSpanEdgesMatchCommittedSnapshot) {
  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(kMidSpanGoldenPath);
    ASSERT_TRUE(os.good()) << "cannot write " << kMidSpanGoldenPath;
    os << MidSpanSnapshot(/*threads=*/1);
    GTEST_SKIP() << "regenerated " << kMidSpanGoldenPath;
  }
  std::ifstream in(kMidSpanGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden " << kMidSpanGoldenPath
                         << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string golden = contents.str();
  for (const int threads : {1, 4}) {
    EXPECT_EQ(MidSpanSnapshot(threads), golden)
        << "threads=" << threads << ": the mid-span fault run drifted from "
        << kMidSpanGoldenPath;
  }
}

// The mid-span scenario must keep biting: the crash evicts a job between
// rounds and the slowdown re-anchors running ones.
TEST(GoldenTraceTest, MidSpanScenarioExercisesTheFaultPath) {
  std::unique_ptr<Simulator> sim = MakeMidSpanScenario(1);
  const RunMetrics metrics = sim->Run();
  EXPECT_EQ(metrics.server_crashes, 1);
  EXPECT_EQ(metrics.server_recoveries, 1);
  EXPECT_GT(metrics.job_evictions, 0);
  EXPECT_EQ(metrics.completed_jobs, metrics.total_jobs);
  EXPECT_EQ(metrics.audit_violations, 0) << sim->auditor().Summary();
}

}  // namespace
}  // namespace optimus
