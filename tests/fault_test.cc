// Fault-injection and invariant-auditor coverage: plan parsing, the injector
// timeline, checkpoint/rollback exactness, simulator-level crash handling,
// relaunch backoff, the straggler-detection boundary, and negative tests that
// prove the auditor rejects corrupted cluster snapshots.

#include <algorithm>
#include <cctype>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/job.h"
#include "src/cluster/server.h"
#include "src/cluster/straggler.h"
#include "src/common/rng.h"
#include "src/models/model_zoo.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_injector.h"
#include "src/sim/invariant_auditor.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/workload.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanParseTest, ParsesAllEventKinds) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(
      "crash@2400:server=3,recover=30000;"
      "rack@12000:servers=7-9,recover=21600;"
      "crash@5000:server=1;"
      "slow@6000:factor=0.6,duration=3600",
      &plan, &error))
      << error;
  ASSERT_EQ(plan.outages.size(), 3u);
  EXPECT_EQ(plan.outages[0].start_s, 2400.0);
  EXPECT_EQ(plan.outages[0].recover_s, 30000.0);
  EXPECT_EQ(plan.outages[0].servers, std::vector<ServerRange>({{3, 3}}));
  EXPECT_EQ(plan.outages[1].servers, std::vector<ServerRange>({{7, 9}}));
  // No recover clause = permanent.
  EXPECT_TRUE(std::isinf(plan.outages[2].recover_s));
  ASSERT_EQ(plan.slowdowns.size(), 1u);
  EXPECT_EQ(plan.slowdowns[0].start_s, 6000.0);
  EXPECT_EQ(plan.slowdowns[0].end_s, 9600.0);
  EXPECT_EQ(plan.slowdowns[0].factor, 0.6);
}

TEST(FaultPlanParseTest, RejectsMalformedEvents) {
  // Each message quotes the event, and a bad server id is named too.
  const struct {
    const char* spec;
    const char* names;
  } bad[] = {
      {"bogus@100:server=1", "'bogus'"},              // unknown kind
      {"crash@x:server=1", "bad time"},               // bad time
      {"crash@100", "names no servers"},              // missing params
      {"crash@100:server=1,recover=50", "recover"},   // recover before start
      {"rack@100:servers=5-3", "'5-3' is empty"},     // empty range
      {"slow@100:factor=0,duration=600", "factor"},   // factor out of (0, 1]
      {"slow@100:factor=1.5,duration=600", "factor"},
      {"slow@100:factor=0.5,duration=0", "duration"},  // non-positive duration
      {"slow@100:factor=0.5", "duration"},             // missing duration
      // Server ids are whole numbers in [0, INT_MAX].
      {"crash@100:server=1.5", "'1.5'"},
      {"crash@100:server=1e3", "'1e3'"},
      {"crash@100:server=-1", "'-1'"},
      {"crash@100:server=+1", "'+1'"},
      {"crash@100:recover=200,server=", "server id ''"},
      {"slow@1e308:factor=0.5,duration=600", "'600' is lost"},  // end == start
      {"rack@100:servers=0-3000000000", "'3000000000'"},
      {"rack@100:servers=0-2147483648", "'2147483648'"},
      {"rack@100:servers=2.5-4", "'2.5'"},
      {"rack@100:servers=4-", "'4-'"},
  };
  for (const auto& [spec, names] : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(ParseFaultPlan(spec, &plan, &error)) << spec;
    EXPECT_NE(error.find("event '" + std::string(spec) + "'"), std::string::npos)
        << spec << ": " << error;
    EXPECT_NE(error.find(names), std::string::npos) << spec << ": " << error;
  }
}

// A range is kept as written and costs what the cluster holds of it: the
// widest legal one takes a four-server cluster down in four transitions.
TEST(FaultPlanParseTest, WideRangeCostsTheCluster) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("rack@100:servers=0-2147483647,recover=200", &plan, &error))
      << error;
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].servers, std::vector<ServerRange>({{0, 2147483647}}));
  FaultConfig config;
  config.plan = plan;
  FaultInjector injector(config, 4);
  EXPECT_EQ(injector.Advance(100).crashed, std::vector<int>({0, 1, 2, 3}));
  EXPECT_EQ(injector.Advance(200).recovered, std::vector<int>({0, 1, 2, 3}));
}

TEST(FaultPlanParseTest, EmptySpecYieldsEmptyPlan) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("", &plan, &error)) << error;
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanParseTest, LoadsPlanFromFileWithComments) {
  const std::string path = testing::TempDir() + "/fault_plan.txt";
  {
    std::ofstream os(path);
    os << "# scripted outage for the regression suite\n"
       << "crash@600:server=0,recover=1200\n"
       << "\n"
       << "slow@300:factor=0.8,duration=900  # trailing comment\n";
  }
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("@" + path, &plan, &error)) << error;
  EXPECT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.slowdowns.size(), 1u);
}

// ---------------------------------------------------------------------------
// Fault-plan DSL fuzzing
// ---------------------------------------------------------------------------

std::string TrimSpaces(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t\r");
  return b == std::string::npos ? "" : s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

// A spec's events as the parser splits them: ';'/newline pieces, '#'
// comments dropped, trimmed, empty pieces skipped.
std::vector<std::string> PlanEvents(const std::string& spec) {
  std::vector<std::string> events;
  std::string piece;
  for (size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ';' || spec[i] == '\n') {
      piece = TrimSpaces(piece.substr(0, piece.find('#')));
      if (!piece.empty()) {
        events.push_back(piece);
      }
      piece.clear();
    } else {
      piece.push_back(spec[i]);
    }
  }
  return events;
}

// Whether every server id a crash/rack event names is written as a whole
// number: "S" or "A-B", digits only.
bool ServerIdsAreWhole(const std::string& event) {
  const size_t colon = event.find(':', event.find('@'));
  if (colon == std::string::npos) {
    return true;
  }
  std::string param;
  const std::string params = event.substr(colon + 1) + ",";
  for (const char c : params) {
    if (c != ',') {
      param.push_back(c);
      continue;
    }
    const size_t eq = param.find('=');
    const std::string key = TrimSpaces(param.substr(0, eq));
    if (eq != std::string::npos && (key == "server" || key == "servers")) {
      const std::string value = TrimSpaces(param.substr(eq + 1));
      const size_t dash = value.find('-');
      for (size_t i = 0; i < value.size(); ++i) {
        const bool digit = value[i] >= '0' && value[i] <= '9';
        if (!digit && !(i == dash && i > 0 && i + 1 < value.size())) {
          return false;
        }
      }
    }
    param.clear();
  }
  return true;
}

// One random edit: a splice from another plan, a truncation, a swapped
// separator, a huge or odd number in place of a digit run, a fractional
// tail, or a dropped/doubled character.
std::string Mutate(std::string s, const std::vector<std::string>& seeds, Rng* rng) {
  static const std::string kSeparators = ";:,=@-\n#";
  static const char* const kNumbers[] = {
      "99999999999999999999", "2147483648", "2147483647", "4294967296", "1e308",
      "1e400", "-0", "0x10", "inf", "nan", "1.5", "3.0", "1e3", "-1", "", " 7 ",
      "200000000", "0-2147483647"};
  auto pos = [&](size_t n) { return static_cast<size_t>(rng->UniformInt(0, n)); };
  auto digit_run = [&](size_t* b, size_t* e) {
    std::vector<size_t> starts;
    for (size_t i = 0; i < s.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(s[i])) &&
          (i == 0 || !std::isdigit(static_cast<unsigned char>(s[i - 1])))) {
        starts.push_back(i);
      }
    }
    if (starts.empty()) {
      return false;
    }
    *b = starts[pos(starts.size() - 1)];
    for (*e = *b; *e < s.size() && std::isdigit(static_cast<unsigned char>(s[*e])); ++*e) {
    }
    return true;
  };
  size_t b = 0;
  size_t e = 0;
  switch (rng->UniformInt(0, 5)) {
    case 0: {
      const std::string& other = seeds[pos(seeds.size() - 1)];
      const size_t from = pos(other.size());
      s.insert(pos(s.size()), other.substr(from, pos(other.size() - from)));
      break;
    }
    case 1:
      s.resize(pos(s.size()));
      break;
    case 2: {
      std::vector<size_t> at;
      for (size_t i = 0; i < s.size(); ++i) {
        if (kSeparators.find(s[i]) != std::string::npos) {
          at.push_back(i);
        }
      }
      if (!at.empty()) {
        s[at[pos(at.size() - 1)]] = kSeparators[pos(kSeparators.size() - 1)];
      }
      break;
    }
    case 3:
      if (digit_run(&b, &e)) {
        s.replace(b, e - b, kNumbers[pos(std::size(kNumbers) - 1)]);
      }
      break;
    case 4:
      if (digit_run(&b, &e)) {
        s.insert(e, rng->Bernoulli(0.5) ? ".5" : ".0");
      }
      break;
    default:
      if (!s.empty()) {
        const size_t i = pos(s.size() - 1);
        s.insert(i, rng->Bernoulli(0.5) ? 0 : 1, s[i]);
        if (rng->Bernoulli(0.5)) {
          s.erase(i, 1);
        }
      }
      break;
  }
  return s;
}

// Mutated valid plans: the parser never crashes, every rejection quotes one
// of the spec's events, and every accepted plan has one entry per event,
// whole server ids as written, recover_s > start_s, and bursts that end
// after they start.
TEST(FaultPlanFuzzTest, MutatedPlansParseOrNameTheirEvent) {
  const std::vector<std::string> seeds = {
      "crash@2400:server=3,recover=30000",
      "rack@12000:servers=7-9,recover=21600",
      "slow@6000:factor=0.6,duration=3600",
      "crash@5000:server=1",
      "crash@1800:server=2,recover=5400;rack@4200:servers=6-8,recover=6600;"
      "slow@2400:factor=0.7,duration=1800",
      "slow@2100:factor=0.7,duration=1300\ncrash@2950:server=3,recover=7777 # edge\n",
  };
  Rng rng(0xfa017);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string spec = seeds[static_cast<size_t>(rng.UniformInt(0, seeds.size() - 1))];
    for (int64_t m = rng.UniformInt(1, 4); m > 0; --m) {
      spec = Mutate(spec, seeds, &rng);
    }
    if (!TrimSpaces(spec).empty() && TrimSpaces(spec)[0] == '@') {
      continue;  // the file form reads a path
    }
    FaultPlan plan;
    std::string error;
    const std::vector<std::string> events = PlanEvents(spec);
    if (!ParseFaultPlan(spec, &plan, &error)) {
      ++rejected;
      const bool named = std::any_of(events.begin(), events.end(), [&](const std::string& ev) {
        return error.find("event '" + ev + "'") != std::string::npos;
      });
      EXPECT_TRUE(named) << "spec: " << spec << "\nerror: " << error;
      continue;
    }
    ++accepted;
    EXPECT_EQ(plan.outages.size() + plan.slowdowns.size(), events.size()) << spec;
    for (const std::string& ev : events) {
      EXPECT_TRUE(ServerIdsAreWhole(ev)) << "accepted a server id that is not whole: " << ev;
    }
    for (const ServerOutage& outage : plan.outages) {
      EXPECT_GE(outage.start_s, 0.0) << spec;
      EXPECT_GT(outage.recover_s, outage.start_s) << spec;
      EXPECT_FALSE(outage.servers.empty()) << spec;
      for (const ServerRange& range : outage.servers) {
        EXPECT_LE(0, range.first) << spec;
        EXPECT_LE(range.first, range.last) << spec;
      }
    }
    for (const SlowdownBurst& burst : plan.slowdowns) {
      EXPECT_GT(burst.end_s, burst.start_s) << spec;
      EXPECT_GT(burst.factor, 0.0) << spec;
      EXPECT_LE(burst.factor, 1.0) << spec;
    }
    if (HasFailure()) {
      break;  // one failing spec is enough to read
    }
  }
  // Both sides of the parser were exercised.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

// ---------------------------------------------------------------------------
// Injector timeline
// ---------------------------------------------------------------------------

FaultConfig ConfigWithPlan(const std::string& spec) {
  FaultConfig config;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(spec, &config.plan, &error)) << error;
  return config;
}

TEST(FaultInjectorTest, ReportsCrashAndRecoveryOnSchedule) {
  FaultInjector injector(ConfigWithPlan("crash@100:server=2,recover=400"), 4);
  EXPECT_TRUE(injector.Advance(0).crashed.empty());
  EXPECT_TRUE(injector.server_up(2));

  FaultInjector::IntervalFaults at_crash = injector.Advance(100);
  EXPECT_EQ(at_crash.crashed, std::vector<int>({2}));
  EXPECT_FALSE(injector.server_up(2));
  EXPECT_EQ(injector.servers_down(), 1);

  EXPECT_TRUE(injector.Advance(300).crashed.empty());
  FaultInjector::IntervalFaults at_recover = injector.Advance(400);
  EXPECT_EQ(at_recover.recovered, std::vector<int>({2}));
  EXPECT_TRUE(injector.server_up(2));
  EXPECT_EQ(injector.servers_down(), 0);
}

TEST(FaultInjectorTest, FlapWithinOneSpanReportsNoNetTransition) {
  // The server crashes and recovers between two Advance calls: no net change.
  FaultInjector injector(ConfigWithPlan("crash@100:server=1,recover=200"), 4);
  FaultInjector::IntervalFaults f = injector.Advance(250);
  EXPECT_TRUE(f.crashed.empty());
  EXPECT_TRUE(f.recovered.empty());
  EXPECT_TRUE(injector.server_up(1));
}

TEST(FaultInjectorTest, OverlappingOutagesComposeUntilBothEnd) {
  FaultInjector injector(
      ConfigWithPlan("crash@100:server=0,recover=500;"
                     "rack@200:servers=0-1,recover=300"),
      4);
  injector.Advance(200);
  EXPECT_FALSE(injector.server_up(0));
  EXPECT_FALSE(injector.server_up(1));
  FaultInjector::IntervalFaults f = injector.Advance(300);
  // Server 1 was covered only by the rack outage; server 0 stays down until
  // its own outage ends at 500.
  EXPECT_EQ(f.recovered, std::vector<int>({1}));
  EXPECT_FALSE(injector.server_up(0));
  injector.Advance(500);
  EXPECT_TRUE(injector.server_up(0));
}

TEST(FaultInjectorTest, IgnoresServersOutsideTheCluster) {
  FaultInjector injector(ConfigWithPlan("crash@100:server=9"), 4);
  EXPECT_TRUE(injector.Advance(100).crashed.empty());
  EXPECT_EQ(injector.servers_down(), 0);
}

TEST(FaultInjectorTest, SlowdownBurstsMultiply) {
  FaultInjector injector(
      ConfigWithPlan("slow@100:factor=0.5,duration=300;"
                     "slow@200:factor=0.8,duration=100"),
      4);
  EXPECT_EQ(injector.Advance(0).slow_factor, 1.0);
  EXPECT_EQ(injector.Advance(100).slow_factor, 0.5);
  EXPECT_DOUBLE_EQ(injector.Advance(250).slow_factor, 0.5 * 0.8);
  EXPECT_EQ(injector.Advance(350).slow_factor, 0.5);
  EXPECT_EQ(injector.Advance(400).slow_factor, 1.0);
}

TEST(FaultInjectorTest, JobFailureProbabilityCompoundsPerTask) {
  FaultConfig config;
  config.task_failure_prob = 0.5;
  FaultInjector injector(config, 4);
  EXPECT_EQ(injector.JobFailureProbability(0), 0.0);
  EXPECT_DOUBLE_EQ(injector.JobFailureProbability(1), 0.5);
  EXPECT_DOUBLE_EQ(injector.JobFailureProbability(2), 0.75);
}

// ---------------------------------------------------------------------------
// Checkpoint / rollback exactness
// ---------------------------------------------------------------------------

JobSpec MakeJobSpec() {
  JobSpec spec;
  spec.id = 1;
  spec.model = &FindModel("ResNet-50");
  spec.mode = TrainingMode::kSync;
  spec.worker_demand = Resources(2.5, 10, 0, 0.15);
  spec.ps_demand = Resources(2.5, 10, 0, 0.15);
  return spec;
}

TEST(JobCheckpointTest, RollbackRestoresStepsExactly) {
  Job job(MakeJobSpec());
  job.AdvanceSteps(120.5);
  job.TakeCheckpoint();
  EXPECT_EQ(job.checkpoint_steps(), 120.5);
  job.AdvanceSteps(37.25);
  EXPECT_EQ(job.RollbackToCheckpoint(), 37.25);
  EXPECT_EQ(job.steps_done(), 120.5);  // bitwise: both values are exact
  // A second rollback without new progress loses nothing.
  EXPECT_EQ(job.RollbackToCheckpoint(), 0.0);
  EXPECT_EQ(job.steps_done(), 120.5);
}

TEST(JobCheckpointTest, FreshJobRollsBackToZero) {
  Job job(MakeJobSpec());
  job.AdvanceSteps(55.0);
  EXPECT_EQ(job.RollbackToCheckpoint(), 55.0);
  EXPECT_EQ(job.steps_done(), 0.0);
}

TEST(JobCheckpointTest, RollbackRestoresConvergenceBookkeeping) {
  JobSpec spec = MakeJobSpec();
  spec.convergence_delta = 0.02;
  spec.patience = 2;
  Job job(spec);
  job.RecordEpochLoss(1.0);
  job.RecordEpochLoss(0.9);
  job.TakeCheckpoint();
  // Progress past the checkpoint builds a convergence streak...
  job.RecordEpochLoss(0.899);
  EXPECT_EQ(job.epoch_losses().size(), 3u);
  // ...which the crash destroys along with the steps.
  job.RollbackToCheckpoint();
  EXPECT_EQ(job.epoch_losses().size(), 2u);
  EXPECT_FALSE(job.converged());
  // Replaying the same epochs converges exactly as the first time would have.
  EXPECT_FALSE(job.RecordEpochLoss(0.899));
  EXPECT_TRUE(job.RecordEpochLoss(0.898));
}

// ---------------------------------------------------------------------------
// Simulator-level fault handling
// ---------------------------------------------------------------------------

std::vector<JobSpec> SmallWorkload(int num_jobs, uint64_t seed,
                                   double arrival_window_s = 2400.0) {
  WorkloadConfig config;
  config.num_jobs = num_jobs;
  config.arrival_window_s = arrival_window_s;
  Rng rng(seed ^ 0x5eedULL);
  return GenerateWorkload(config, &rng);
}

TEST(SimulatorFaultTest, CrashEvictsAndRollsProgressBackToCheckpoint) {
  SimulatorConfig config;
  config.seed = 5;
  config.max_sim_time_s = 2e4;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("crash@1800:server=0", &config.fault.plan, &error))
      << error;
  // One job on a one-server cluster: the permanent crash at 1800 s must evict
  // it mid-run and leave it parked on its last checkpoint forever.
  Simulator sim(config, BuildUniformCluster(1, Resources(16, 80, 0, 1)),
                SmallWorkload(1, config.seed, 1.0));
  RunMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.server_crashes, 1);
  EXPECT_EQ(metrics.server_recoveries, 0);
  EXPECT_EQ(metrics.job_evictions, 1);
  EXPECT_GT(metrics.rolled_back_steps, 0.0);
  EXPECT_EQ(metrics.completed_jobs, 0);
  EXPECT_FALSE(sim.server_available(0));
  // Progress rolled back to the last checkpoint exactly.
  const JobSnapshot job = sim.job(0);
  EXPECT_EQ(job.steps_done, job.checkpoint_steps);
  EXPECT_NE(job.state, JobState::kRunning);
  // Crash and eviction are in the event trace; the auditor saw nothing wrong.
  std::map<SimEventType, int64_t> counts = sim.trace().CountByType();
  EXPECT_EQ(counts[SimEventType::kServerCrash], 1);
  EXPECT_EQ(counts[SimEventType::kEvicted], 1);
  EXPECT_GT(metrics.audit_checks, 0);
  EXPECT_EQ(metrics.audit_violations, 0);
}

TEST(SimulatorFaultTest, TaskFailuresRollBackInPlaceAndJobsStillFinish) {
  SimulatorConfig config;
  config.seed = 9;
  config.max_sim_time_s = 2e5;
  config.fault.task_failure_prob = 0.05;
  // Periodic checkpoints bound how much a rollback can destroy; without them
  // a job that fails often enough could relive the same interval forever.
  config.fault.checkpoint_period_s = 3600.0;
  Simulator sim(config, BuildTestbed(), SmallWorkload(4, config.seed));
  RunMetrics metrics = sim.Run();

  EXPECT_GT(metrics.task_failures, 0);
  EXPECT_EQ(metrics.server_crashes, 0);
  EXPECT_EQ(metrics.job_evictions, 0);
  EXPECT_EQ(metrics.completed_jobs, metrics.total_jobs);
  EXPECT_EQ(metrics.audit_violations, 0);
  std::map<SimEventType, int64_t> counts = sim.trace().CountByType();
  EXPECT_EQ(counts[SimEventType::kTaskFailed], metrics.task_failures);
}

TEST(SimulatorFaultTest, StragglerHandlingDoesNotResurrectDeadServers) {
  SimulatorConfig config;
  config.seed = 3;
  config.max_sim_time_s = 2e5;
  config.straggler.injection_prob_per_interval = 0.4;
  config.straggler.handling_enabled = true;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("crash@3000:server=0;crash@3000:server=1",
                             &config.fault.plan, &error))
      << error;
  Simulator sim(config, BuildTestbed(), SmallWorkload(6, config.seed));
  RunMetrics metrics = sim.Run();

  // Straggler replacement stayed active throughout the run...
  EXPECT_GT(metrics.straggler_replacements, 0);
  // ...while the crashed servers stayed dead to the end. The auditor checks
  // the dead-server invariant every interval, so zero violations proves no
  // replacement or reallocation ever landed tasks on them.
  EXPECT_EQ(metrics.server_crashes, 2);
  EXPECT_EQ(metrics.server_recoveries, 0);
  EXPECT_FALSE(sim.server_available(0));
  EXPECT_FALSE(sim.server_available(1));
  EXPECT_GT(metrics.audit_checks, 0);
  EXPECT_EQ(metrics.audit_violations, 0);
}

TEST(SimulatorFaultTest, AllAllocatorPoliciesAuditCleanUnderFaults) {
  for (const char* policy : {"optimus", "drf", "tetris", "fifo"}) {
    SimulatorConfig config;
    ApplySchedulerPolicy(policy, &config);
    config.seed = 11;
    config.max_sim_time_s = 2e5;
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(
        "crash@1800:server=2,recover=9000;"
        "rack@4200:servers=6-8,recover=12000;"
        "slow@2400:factor=0.7,duration=1800",
        &config.fault.plan, &error))
        << error;
    config.fault.task_failure_prob = 0.02;
    config.fault.checkpoint_period_s = 3600.0;
    Simulator sim(config, BuildTestbed(), SmallWorkload(6, config.seed));
    RunMetrics metrics = sim.Run();
    EXPECT_GT(metrics.audit_checks, 0) << policy;
    EXPECT_EQ(metrics.audit_violations, 0)
        << policy << ": " << sim.auditor().Summary();
    EXPECT_EQ(metrics.server_crashes, 4) << policy;
    EXPECT_EQ(metrics.server_recoveries, 4) << policy;
  }
}

TEST(SimulatorFaultTest, RepeatedEvictionsTriggerRelaunchBackoff) {
  SimulatorConfig config;
  config.seed = 13;
  config.max_sim_time_s = 4e4;
  config.fault.evictions_before_backoff = 1;
  config.fault.backoff_base_s = 3000.0;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("crash@1800:server=0,recover=2400",
                             &config.fault.plan, &error))
      << error;
  Simulator sim(config, BuildUniformCluster(1, Resources(16, 80, 0, 1)),
                SmallWorkload(1, config.seed, 1.0));
  RunMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.job_evictions, 1);
  EXPECT_EQ(metrics.backoff_deferrals, 1);
  // The backoff delays the relaunch past the server's recovery but the job
  // still finishes within the horizon.
  EXPECT_EQ(metrics.completed_jobs, 1);
  EXPECT_EQ(metrics.audit_violations, 0);
}

// ---------------------------------------------------------------------------
// Straggler-detection boundary (§5.2): kStragglerDetectThreshold vs slow_factor_hi
// ---------------------------------------------------------------------------

TEST(StragglerBoundaryTest, ExactlyHalfMedianIsNotReplaced) {
  StragglerConfig config;
  config.injection_prob_per_interval = 0.0;
  config.natural_recovery_prob = 0.0;
  config.handling_enabled = true;
  StragglerModel model(config);
  Rng rng(1);

  // Detection is a strict `<`: a worker at exactly half the median speed is
  // left in place (healthy workers define the median factor of 1.0).
  Job at_boundary(MakeJobSpec());
  at_boundary.set_slowest_worker_factor(0.5);
  EXPECT_FALSE(model.Step(&at_boundary, &rng));
  EXPECT_EQ(at_boundary.slowest_worker_factor(), 0.5);
  EXPECT_EQ(at_boundary.stall_remaining_s(), 0.0);

  // Strictly below the threshold: replaced, speed restored, stall charged.
  Job below(MakeJobSpec());
  below.set_slowest_worker_factor(0.49);
  EXPECT_TRUE(model.Step(&below, &rng));
  EXPECT_EQ(below.slowest_worker_factor(), 1.0);
  EXPECT_EQ(below.stall_remaining_s(), kStragglerReplaceDelayS);
}

TEST(StragglerBoundaryTest, MildStragglersInTheGapAreNeverReplaced) {
  // The injection range [slow_factor_lo, slow_factor_hi) deliberately
  // straddles kStragglerDetectThreshold: factors in [0.5, 0.7) are mild
  // stragglers the paper's policy rides out rather than replacing.
  StragglerConfig config;
  config.injection_prob_per_interval = 0.0;
  config.natural_recovery_prob = 0.0;
  config.handling_enabled = true;
  ASSERT_LT(kStragglerDetectThreshold, config.slow_factor_hi);
  StragglerModel model(config);
  Rng rng(1);

  Job mild(MakeJobSpec());
  mild.set_slowest_worker_factor(0.6);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(model.Step(&mild, &rng));
  }
  EXPECT_EQ(mild.slowest_worker_factor(), 0.6);
  EXPECT_EQ(model.replacements(), 0);
}

// ---------------------------------------------------------------------------
// Auditor negative tests: deliberately corrupted snapshots must be rejected
// ---------------------------------------------------------------------------

struct AuditFixture {
  std::vector<Server> servers;
  JobPlacement placement;
  InvariantAuditor::JobView view;
  InvariantAuditor::Counts counts;

  AuditFixture() {
    servers.push_back(Server(0, Resources(16, 64, 0, 1)));
    servers.push_back(Server(1, Resources(16, 64, 0, 1)));
    placement = {.used_servers = {0}, .used_workers = {2}, .used_ps = {1}};
    view.job_id = 0;
    view.state = JobState::kRunning;
    view.steps_done = 10.0;
    view.num_ps = 1;
    view.num_workers = 2;
    view.worker_demand = Resources(2.5, 10, 0, 0.15);
    view.ps_demand = Resources(2.5, 10, 0, 0.15);
    view.placement = &placement;
    counts.submitted = 1;
    counts.completed_metric = 0;
  }
};

TEST(AuditorNegativeTest, ConsistentSnapshotPasses) {
  AuditFixture f;
  InvariantAuditor auditor;
  auditor.Check(600.0, f.servers, {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.checks_run(), 1);
}

TEST(AuditorNegativeTest, CatchesOvercommittedServer) {
  AuditFixture f;
  // 8 workers at 10 GB each overflow the server's 64 GB.
  f.placement.used_workers = {8};
  f.view.num_workers = 8;
  InvariantAuditor auditor;
  auditor.Check(600.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "capacity");
}

TEST(AuditorNegativeTest, CatchesPlacementOnDeadServer) {
  AuditFixture f;
  f.servers[0].SetAvailable(false);
  InvariantAuditor auditor;
  auditor.Check(600.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  bool found = false;
  for (const AuditViolation& v : auditor.violations()) {
    found = found || v.invariant == "dead-server";
  }
  EXPECT_TRUE(found) << auditor.Summary();
}

TEST(AuditorNegativeTest, CatchesPlacementAllocationMismatch) {
  AuditFixture f;
  f.view.num_workers = 3;  // placement only holds 2
  InvariantAuditor auditor;
  auditor.Check(600.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "capacity");
}

TEST(AuditorNegativeTest, CatchesJobCensusMismatch) {
  AuditFixture f;
  f.counts.submitted = 2;  // claims one more job than the snapshot holds
  InvariantAuditor auditor;
  auditor.Check(600.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "accounting");
}

TEST(AuditorNegativeTest, ProgressDecreaseNeedsAnAnnouncedRollback) {
  AuditFixture f;
  InvariantAuditor auditor;
  auditor.Check(600.0, f.servers, {f.view}, f.counts);
  ASSERT_TRUE(auditor.ok());

  // Silent progress loss: violation.
  f.view.steps_done = 5.0;
  auditor.Check(1200.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "progress");

  // Announced rollback: the same decrease is allowed, once.
  InvariantAuditor clean;
  InvariantAuditor::JobView view = f.view;
  view.steps_done = 10.0;
  clean.Check(600.0, f.servers, {view}, f.counts);
  clean.NoteRollback(view.job_id);
  view.steps_done = 5.0;
  clean.Check(1200.0, f.servers, {view}, f.counts);
  EXPECT_TRUE(clean.ok()) << clean.Summary();
  // The allowance does not persist to the next interval.
  view.steps_done = 2.0;
  clean.Check(1800.0, f.servers, {view}, f.counts);
  EXPECT_FALSE(clean.ok());
}

TEST(AuditorNegativeTest, CatchesAllocationHeldWhilePaused) {
  AuditFixture f;
  f.view.state = JobState::kPaused;  // paused jobs must hold no resources
  InvariantAuditor auditor;
  auditor.Check(600.0, f.servers, {f.view}, f.counts);
  EXPECT_FALSE(auditor.ok());
}

}  // namespace
}  // namespace optimus
