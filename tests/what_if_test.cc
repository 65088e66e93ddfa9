// What-if admission: EvaluateAdmission on hand-built clusters, and the
// simulator's cached what-if baseline against fresh queries: every field
// bitwise equal to a cold simulator driven through the same mutations, and a
// session's mutating responses unchanged by interleaved queries.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/obs/exporters.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/what_if.h"
#include "src/service/session.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

SpeedEstimate ConcaveSpeed() {
  return KeepSpeed([](int p, int w) {
    return 1.0 / (4.0 / w + 1.0 + 0.8 * w / p + 0.05 * w + 0.05 * p);
  });
}

SchedJob MakeJob(int id, double remaining_epochs) {
  SchedJob job;
  job.job_id = id;
  job.worker_demand = Resources(5, 10, 0, 0.2);
  job.ps_demand = Resources(5, 10, 0, 0.2);
  job.remaining_epochs = remaining_epochs;
  job.speed = ConcaveSpeed();
  job.max_ps = 16;
  job.max_workers = 16;
  return job;
}

TEST(WhatIfTest, AdmitsIntoIdleCluster) {
  OptimusAllocator allocator;
  WhatIfResult r = EvaluateAdmission(allocator, {}, MakeJob(0, 10.0),
                                     Resources(100, 1000, 0, 100));
  EXPECT_TRUE(r.admitted);
  EXPECT_TRUE(ActiveAllocation(r.new_job_alloc, CommMode::kParameterServer));
  EXPECT_GT(r.new_job_completion_s, 0.0);
  EXPECT_TRUE(std::isfinite(r.new_job_completion_s));
  EXPECT_DOUBLE_EQ(r.total_slowdown_s, 0.0);
}

TEST(WhatIfTest, AdmissionSlowsExistingJobsUnderContention) {
  OptimusAllocator allocator;
  std::vector<SchedJob> existing = {MakeJob(0, 20.0), MakeJob(1, 30.0)};
  // Tight capacity: the candidate must take resources from someone.
  WhatIfResult r = EvaluateAdmission(allocator, existing, MakeJob(2, 25.0),
                                     Resources(80, 800, 0, 80));
  EXPECT_TRUE(r.admitted);
  EXPECT_GT(r.total_slowdown_s, 0.0);
  // Every existing job's completion estimate exists in both scenarios, at
  // its input position.
  ASSERT_EQ(r.baseline_completion_s.size(), existing.size());
  ASSERT_EQ(r.with_job_completion_s.size(), existing.size());
  for (size_t i = 0; i < existing.size(); ++i) {
    EXPECT_GE(r.with_job_completion_s[i], r.baseline_completion_s[i] - 1e-9);
  }
}

TEST(WhatIfTest, NotAdmittedWhenNoCapacityForSeed) {
  OptimusAllocator allocator;
  std::vector<SchedJob> existing = {MakeJob(0, 20.0)};
  // Room for exactly one job's (1,1) seed.
  WhatIfResult r = EvaluateAdmission(allocator, existing, MakeJob(1, 10.0),
                                     Resources(10, 100, 0, 10));
  EXPECT_FALSE(r.admitted);
}

TEST(WhatIfTest, BaselineMatchesStandaloneAllocation) {
  OptimusAllocator allocator;
  std::vector<SchedJob> existing = {MakeJob(0, 15.0)};
  const Resources capacity(60, 600, 0, 60);
  WhatIfResult r = EvaluateAdmission(allocator, existing, MakeJob(1, 5.0), capacity);
  const std::vector<Allocation> direct = allocator.Allocate(existing, capacity);
  const Allocation a = direct[0];
  const double f = existing[0].speed(a.num_ps, a.num_workers);
  ASSERT_EQ(r.baseline_completion_s.size(), 1u);
  EXPECT_NEAR(r.baseline_completion_s[0], 15.0 / f, 1e-9);
}

// ---------------------------------------------------------------------------
// Cached what-if baseline against fresh queries
// ---------------------------------------------------------------------------

// One step of a seeded session: a mutation, or a run of back-to-back what-if
// queries.
struct SessionOp {
  enum class Kind { kAdvance, kSubmit, kKill, kRun, kWhatIfs };
  Kind kind = Kind::kAdvance;
  double dt_s = 0.0;                // kAdvance
  JobSpec spec;                     // kSubmit (arrives at the current time)
  int job_id = 0;                   // kKill
  std::vector<JobSpec> candidates;  // kWhatIfs
};

constexpr int kInitialJobs = 12;

std::vector<JobSpec> InitialJobs() {
  WorkloadConfig config;
  config.num_jobs = kInitialJobs;
  config.arrival_window_s = 1200.0;
  Rng rng(3);
  return GenerateWorkload(config, &rng);
}

// A random session over the 13-server testbed, tight enough that admitted
// rounds bind while a dozen jobs run. Kills pick jobs that have arrived by
// the previous advance, so most hit a schedulable job. Candidates reuse one
// id across different models (the next unused id, as the service hands
// out), a live id, and a killed one.
std::vector<SessionOp> RandomSession(uint64_t seed) {
  Rng rng(seed);
  WorkloadConfig pool_config;
  pool_config.num_jobs = 24;
  Rng pool_rng(seed + 1000);
  const std::vector<JobSpec> pool = GenerateWorkload(pool_config, &pool_rng);
  const auto pick = [&] {
    return pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  };
  const auto any_of = [&](const std::vector<int>& ids) {
    return ids[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
  };

  std::vector<SessionOp> ops;
  // Jobs that arrived by the previous advance (not yet killed), and jobs
  // that arrive at the next one.
  std::vector<int> arrived;
  std::vector<int> arriving;
  std::vector<int> killed;
  const std::vector<JobSpec> initial = InitialJobs();
  double target_s = 0.0;
  int next_id = 100;
  const auto what_ifs = [&] {
    SessionOp op;
    op.kind = SessionOp::Kind::kWhatIfs;
    const int n = static_cast<int>(rng.UniformInt(2, 5));
    for (int k = 0; k < n; ++k) {
      JobSpec c = pick();
      c.id = next_id;
      if (k > 0 && !arrived.empty() && rng.Bernoulli(0.3)) {
        c.id = any_of(arrived);
      } else if (k > 0 && !killed.empty() && rng.Bernoulli(0.2)) {
        c.id = any_of(killed);
      }
      op.candidates.push_back(c);
    }
    ops.push_back(op);
  };

  what_ifs();
  for (int step = 0; step < 20; ++step) {
    SessionOp op;
    const double r = rng.Uniform(0.0, 1.0);
    if (r < 0.35 || (r >= 0.7 && arrived.empty())) {
      op.kind = SessionOp::Kind::kAdvance;
      op.dt_s = 300.0 * static_cast<double>(rng.UniformInt(1, 3));
      target_s += op.dt_s;
      arrived.insert(arrived.end(), arriving.begin(), arriving.end());
      arriving.clear();
      for (const JobSpec& job : initial) {
        if (job.arrival_time_s <= target_s &&
            std::find(arrived.begin(), arrived.end(), job.id) == arrived.end() &&
            std::find(killed.begin(), killed.end(), job.id) == killed.end()) {
          arrived.push_back(job.id);
        }
      }
    } else if (r < 0.7) {
      op.kind = SessionOp::Kind::kSubmit;
      op.spec = pick();
      op.spec.id = next_id++;
      arriving.push_back(op.spec.id);
    } else {
      op.kind = SessionOp::Kind::kKill;
      op.job_id = any_of(arrived);
      arrived.erase(std::find(arrived.begin(), arrived.end(), op.job_id));
      killed.push_back(op.job_id);
    }
    ops.push_back(op);
    what_ifs();
    if (rng.Bernoulli(0.4)) {
      what_ifs();  // a second run with no mutation in between
    }
  }
  SessionOp run;
  run.kind = SessionOp::Kind::kRun;
  ops.push_back(run);
  what_ifs();
  return ops;
}

std::unique_ptr<Simulator> MakeSimulator(SimEngine engine, const std::string& policy) {
  SimulatorConfig config;
  ApplySchedulerPolicy(policy, &config);
  config.seed = 11;
  config.engine = engine;
  return std::make_unique<Simulator>(config, BuildTestbed(), InitialJobs());
}

// Applies a mutation; what-if runs are left to the caller.
void ApplyMutation(const SessionOp& op, Simulator* sim, double* target_s) {
  switch (op.kind) {
    case SessionOp::Kind::kAdvance:
      *target_s += op.dt_s;
      sim->AdvanceTo(*target_s);
      break;
    case SessionOp::Kind::kSubmit: {
      JobSpec spec = op.spec;
      spec.arrival_time_s = sim->now_s();
      sim->SubmitJob(spec);
      break;
    }
    case SessionOp::Kind::kKill:
      sim->KillJob(op.job_id);  // may refuse a completed job: no change then
      break;
    case SessionOp::Kind::kRun:
      sim->Run();
      break;
    case SessionOp::Kind::kWhatIfs:
      break;
  }
}

// A simulator driven through the mutations of ops[0, upto) with no query.
std::unique_ptr<Simulator> ColdSimulator(SimEngine engine, const std::string& policy,
                                         const std::vector<SessionOp>& ops, size_t upto) {
  std::unique_ptr<Simulator> sim = MakeSimulator(engine, policy);
  double target_s = 0.0;
  for (size_t i = 0; i < upto; ++i) {
    ApplyMutation(ops[i], sim.get(), &target_s);
  }
  return sim;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectBitwiseEqual(const WhatIfResult& got, const WhatIfResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.admitted, want.admitted) << where;
  EXPECT_EQ(got.new_job_alloc.num_ps, want.new_job_alloc.num_ps) << where;
  EXPECT_EQ(got.new_job_alloc.num_workers, want.new_job_alloc.num_workers) << where;
  EXPECT_EQ(got.new_job_alloc.global_batch, want.new_job_alloc.global_batch) << where;
  EXPECT_EQ(Bits(got.new_job_completion_s), Bits(want.new_job_completion_s)) << where;
  EXPECT_EQ(Bits(got.total_slowdown_s), Bits(want.total_slowdown_s)) << where;
  ASSERT_EQ(got.baseline_completion_s.size(), want.baseline_completion_s.size()) << where;
  ASSERT_EQ(got.with_job_completion_s.size(), want.with_job_completion_s.size()) << where;
  for (size_t i = 0; i < want.baseline_completion_s.size(); ++i) {
    EXPECT_EQ(Bits(got.baseline_completion_s[i]), Bits(want.baseline_completion_s[i]))
        << where << " job " << i;
    EXPECT_EQ(Bits(got.with_job_completion_s[i]), Bits(want.with_job_completion_s[i]))
        << where << " job " << i;
  }
}

TEST(CachedWhatIfTest, MatchesColdSimulatorBitwise) {
  struct Case {
    SimEngine engine;
    std::string policy;
    uint64_t seed;
  };
  // Optimus on both engines (the slack append applies); goodput and tetris
  // always run the full admitted allocation on the cached surfaces.
  const std::vector<Case> cases = {
      {SimEngine::kInterval, "optimus", 1}, {SimEngine::kInterval, "optimus", 2},
      {SimEngine::kEvents, "optimus", 1},   {SimEngine::kEvents, "optimus", 2},
      {SimEngine::kEvents, "goodput", 3},   {SimEngine::kInterval, "tetris", 4},
  };
  int binding = 0;
  int slack = 0;
  int collisions = 0;
  for (const Case& test_case : cases) {
    const std::vector<SessionOp> ops = RandomSession(test_case.seed);
    std::unique_ptr<Simulator> sim = MakeSimulator(test_case.engine, test_case.policy);
    double target_s = 0.0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != SessionOp::Kind::kWhatIfs) {
        ApplyMutation(ops[i], sim.get(), &target_s);
        continue;
      }
      // The first candidate of a run carries a fresh id, so it sees every
      // schedulable job; a later one that sees one fewer reused a live id.
      size_t considered = 0;
      for (size_t k = 0; k < ops[i].candidates.size(); ++k) {
        const JobSpec& c = ops[i].candidates[k];
        const std::string where = std::string(SimEngineName(test_case.engine)) + " " +
                                  test_case.policy + " op " + std::to_string(i) +
                                  " candidate " + std::to_string(k) + " id " +
                                  std::to_string(c.id);
        const WhatIfResult got = sim->WhatIf(c);
        const WhatIfResult want =
            ColdSimulator(test_case.engine, test_case.policy, ops, i)->WhatIf(c);
        ExpectBitwiseEqual(got, want, where);
        ++(got.total_slowdown_s > 0.0 ? binding : slack);
        if (k == 0) {
          considered = got.baseline_completion_s.size();
        } else if (got.baseline_completion_s.size() + 1 == considered) {
          ++collisions;
        }
      }
    }
  }
  EXPECT_GT(binding, 0);
  EXPECT_GT(slack, 0);
  EXPECT_GT(collisions, 0);
}

// The genesis scenario of the committed service goldens.
constexpr char kScenario[] = R"({
  "schema": "scenario-v1",
  "name": "what_if_interleave",
  "seed": 7,
  "repeats": 1,
  "policies": ["optimus"],
  "workload": {
    "jobs": 6,
    "arrivals": {"kind": "uniform", "window_s": 6000.0},
    "sizes": {"kind": "zoo", "target_steps_per_epoch": 20}
  },
  "cluster": {"testbed": true}
})";

// Replays `lines`, returning the responses to every non-what_if request with
// the request-sequence "id" field dropped (interleaved queries shift it), then
// the final run report.
std::string MutatingTranscript(SimEngine engine, const std::vector<std::string>& lines) {
  SessionOverrides overrides;
  overrides.engine = engine;
  std::string error;
  std::unique_ptr<ServiceSession> session =
      ServiceSession::Create(kScenario, "scenario.json", overrides, &error);
  EXPECT_NE(session, nullptr) << error;
  if (session == nullptr) {
    return "";
  }
  std::ostringstream out;
  for (const std::string& line : lines) {
    bool shutdown = false;
    const std::string response = session->HandleLine(line, &shutdown);
    if (line.find("\"what_if\"") != std::string::npos) {
      continue;
    }
    out << response.substr(response.find(',') + 1) << "\n";
  }
  ExportOptions options;
  options.include_profiling = false;
  Simulator& sim = session->simulator();
  out << ExportJsonReportString(sim.registry(), &sim.series(), &sim.flight_recorder(), options);
  return out.str();
}

TEST(CachedWhatIfTest, InterleavedQueriesLeaveTheSessionUnchanged) {
  const std::vector<std::string> mutations = {
      R"({"op": "advance", "to_s": 1200.0})",
      R"({"op": "submit", "model": "Seq2Seq", "job_id": 100})",
      R"({"op": "submit", "model": "ResNet-50", "job_id": 101, "mode": "async"})",
      R"({"op": "advance", "dt_s": 600.0})",
      R"({"op": "kill", "job_id": 100})",
      R"({"op": "submit", "model": "DeepSpeech2", "max_workers": 16, "max_ps": 16})",
      R"({"op": "advance", "dt_s": 1200.0})",
      R"({"op": "run"})",
  };
  const std::vector<std::string> queries = {
      R"({"op": "what_if", "model": "Inception-BN"})",
      R"({"op": "what_if", "model": "KAGGLE", "max_workers": 4})",
      R"({"op": "what_if", "model": "ResNet-50", "job_id": 101})",
      R"({"op": "what_if", "model": "DSSM", "job_id": 100, "mode": "async"})",
  };
  std::vector<std::string> interleaved;
  for (const std::string& mutation : mutations) {
    interleaved.insert(interleaved.end(), queries.begin(), queries.end());
    interleaved.push_back(mutation);
  }
  interleaved.insert(interleaved.end(), queries.begin(), queries.end());

  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    EXPECT_EQ(MutatingTranscript(engine, interleaved), MutatingTranscript(engine, mutations))
        << SimEngineName(engine);
  }
}

}  // namespace
}  // namespace optimus
