// Golden-trace regression: small fixed workloads, run under fixed fault
// plans, must reproduce committed metrics snapshots bit for bit. Any change
// to scheduling, fault handling, RNG consumption order, or metrics
// accounting shows up here as a readable diff instead of a silent drift.
// The second golden runs a time-varying background share under rack-aware
// placement on both engines, at 1 and 4 threads. The third runs the events
// engine with fault-plan edges inside scheduling spans, at 1 and 4 threads.
// The fourth runs one contended workload under every policy-table row.
//
// Regenerating the goldens after an INTENDED behavior change:
//
//   OPTIMUS_REGEN_GOLDEN=1 ./build/tests/golden_trace_test
//
// then commit tests/golden/fault_trace.json, background_trace.json,
// midspan_trace.json and policy_rows.json together with the change that
// moved them. The snapshot
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
constexpr char kPolicyRowsGoldenPath[] =
    OPTIMUS_SOURCE_DIR "/tests/golden/policy_rows.json";

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
  config.policy = "optimus_rack";
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

// One contended run per policy row: 20 jobs reach the 13-server testbed
// within half an hour under the testbed's straggler injection, so the greedy
// allocator pops more candidates than it grants and each of a row's traits
// (placement, PAA, straggler handling, young-job damping) reaches the
// trajectory. Racks of 4 servers set optimus_rack apart from optimus.
SimulatorConfig PolicyRowConfig(const std::string& policy) {
  SimulatorConfig config;
  config.seed = 5;
  config.max_sim_time_s = 2e5;
  config.rack_size = 4;
  config.policy = policy;
  config.straggler.injection_prob_per_interval = 0.12;
  return config;
}

std::unique_ptr<Simulator> MakePolicyRowRun(const SimulatorConfig& config) {
  WorkloadConfig workload;
  workload.num_jobs = 20;
  workload.arrival_window_s = 1800.0;
  workload.target_steps_per_epoch = 50;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, BuildTestbed(),
                                     GenerateWorkload(workload, &rng));
}

std::string PolicyRowSnapshot(const SimulatorConfig& config) {
  std::unique_ptr<Simulator> sim = MakePolicyRowRun(config);
  const RunMetrics metrics = sim->Run();
  std::ostringstream os;
  os << std::setprecision(17) << "{\"avg_jct_s\": " << metrics.avg_jct_s
     << ", \"makespan_s\": " << metrics.makespan_s << ", \"trace\": {\"records\": "
     << sim->trace().size() << ", \"digest\": \"" << std::hex << sim->trace().digest()
     << "\"}}";
  return os.str();
}

std::string PolicyRowsSnapshot() {
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  for (const SchedulerPolicyInfo& row : Policies()) {
    os << (first ? "" : ",\n") << "\"" << row.name
       << "\": " << PolicyRowSnapshot(PolicyRowConfig(row.name));
    first = false;
  }
  os << "\n}\n";
  return os.str();
}

// The committed golden at `path`. With OPTIMUS_REGEN_GOLDEN set it first
// rewrites the file with `actual`, so the caller's comparison passes.
std::string Golden(const char* path, const std::string& actual) {
  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path);
    EXPECT_TRUE(os.good()) << "cannot write " << path;
    os << actual;
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden " << path
                         << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(GoldenTraceTest, FaultedRunMatchesCommittedSnapshot) {
  std::unique_ptr<Simulator> sim = MakePinnedScenario();
  const RunMetrics metrics = sim->Run();
  const std::string actual = Snapshot(metrics, sim->trace());
  EXPECT_EQ(actual, Golden(kGoldenPath, actual))
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
  const std::string golden = Golden(kBackgroundGoldenPath, BackgroundSnapshot(1));
  for (const int threads : {1, 4}) {
    EXPECT_EQ(BackgroundSnapshot(threads), golden)
        << "threads=" << threads << ": the background-share run drifted from "
        << kBackgroundGoldenPath;
  }
}

TEST(GoldenTraceTest, EventsMidSpanEdgesMatchCommittedSnapshot) {
  const std::string golden = Golden(kMidSpanGoldenPath, MidSpanSnapshot(1));
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

TEST(GoldenTraceTest, PolicyRowsMatchCommittedSnapshot) {
  const std::string actual = PolicyRowsSnapshot();
  EXPECT_EQ(actual, Golden(kPolicyRowsGoldenPath, actual))
      << "a policy row's run drifted from " << kPolicyRowsGoldenPath;
}

// The policy-row run must keep biting on the row's traits: the greedy pops
// more than it grants, and turning off optimus's young-job damping, its packed
// placement or its straggler handling each moves the run.
TEST(GoldenTraceTest, PolicyRowRunExercisesTheTraits) {
  const SimulatorConfig optimus = PolicyRowConfig("optimus");
  std::unique_ptr<Simulator> sim = MakePolicyRowRun(optimus);
  sim->Run();
  const auto counter = [&sim](const char* name) {
    const Metric* m = sim->registry().Find(name);
    EXPECT_NE(m, nullptr) << name;
    return m == nullptr ? 0.0 : static_cast<const Counter*>(m)->value();
  };
  EXPECT_GT(counter("optimus_alloc_pops_total"), counter("optimus_alloc_grants_total"));

  const std::string row = PolicyRowSnapshot(optimus);
  SimulatorConfig undamped = optimus;
  undamped.ablation.young_job_priority_factor = 1.0;
  EXPECT_NE(PolicyRowSnapshot(undamped), row);
  SimulatorConfig spread = optimus;
  spread.ablation.placement = PlacementPolicy::kLoadBalance;
  EXPECT_NE(PolicyRowSnapshot(spread), row);
  SimulatorConfig unhandled = optimus;
  unhandled.ablation.straggler_handling = false;
  EXPECT_NE(PolicyRowSnapshot(unhandled), row);
}

}  // namespace
}  // namespace optimus
