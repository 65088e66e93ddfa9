// Golden-session and determinism tests for the online service mode.
//
// The service's core contract (docs/SERVICE.md): for a fixed request log the
// response stream is a pure function of (genesis scenario, request bytes) —
// no wall-clock values, no thread-count sensitivity, no engine-internal
// ordering leaks. These tests pin that contract four ways:
//
//   1. A committed golden session (tests/golden/serve/) replays byte for
//      byte across --threads {1, 2, 8}, including its error responses; the
//      same requests on the events engine replay to their own golden.
//   2. The events engine is exact across thread counts; interval vs events
//      agree on average JCT within the ALGORITHMS.md §16 tolerance; a
//      2,000-request synthetic load replays bitwise across threads.
//   3. snapshot/restore round-trips: a session restored from a snapshot
//      produces a bitwise-identical remainder-of-run.
//   4. Batch equivalence: a replayed session's final run report matches an
//      equivalent direct Simulator batch run, and chunked AdvanceTo stepping
//      lands on the same report as one uninterrupted Run().
//
// Regenerating the goldens after an INTENDED protocol/behavior change:
//
//   OPTIMUS_REGEN_GOLDEN=1 ./build/tests/service_replay_test
//
// then commit tests/golden/serve/*.ndjson with the change that moved them.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json_writer.h"
#include "src/obs/exporters.h"
#include "src/service/replay.h"
#include "src/service/session.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

#ifndef OPTIMUS_SOURCE_DIR
#error "OPTIMUS_SOURCE_DIR must be defined to locate the golden files"
#endif

namespace optimus {
namespace {

constexpr char kGoldenDir[] = OPTIMUS_SOURCE_DIR "/tests/golden/serve";

std::string ScenarioPath() { return std::string(kGoldenDir) + "/scenario.json"; }
std::string RequestsPath() { return std::string(kGoldenDir) + "/basic.requests.ndjson"; }
std::string ResponsesPath() { return std::string(kGoldenDir) + "/basic.responses.ndjson"; }
std::string SmokePath() { return std::string(kGoldenDir) + "/smoke.requests.ndjson"; }
std::string BurstRequestsPath() {
  return std::string(kGoldenDir) + "/whatif_burst.requests.ndjson";
}
std::string BurstResponsesPath() {
  return std::string(kGoldenDir) + "/whatif_burst.responses.ndjson";
}
std::string GoldenPath(const std::string& name) {
  return std::string(kGoldenDir) + "/" + name;
}

// The committed basic session: every op, both metric formats, a snapshot
// mid-stream, and three deliberately bad lines so the golden also pins the
// positioned-error response format.
const char kBasicRequests[] =
    R"({"op": "metrics_snapshot"})" "\n"
    R"({"op": "what_if", "model": "ResNet-50", "mode": "sync"})" "\n"
    R"({"op": "advance", "to_s": 900.0})" "\n"
    R"({"op": "submit", "model": "Seq2Seq", "job_id": 100, "arrival_s": 1200.0})" "\n"
    R"({"op": "what_if", "model": "Inception-BN", "max_workers": 4})" "\n"
    "# comments and blank lines are skipped, not answered\n"
    "\n"
    R"({"op": "advance", "dt_s": 600.0})" "\n"
    R"({"op": "submit", "model": "ResNet-50", "job_id": 101, "arrival_s": 2000.0, "mode": "async"})" "\n"
    R"({"op": "kill", "job_id": 100})" "\n"
    R"({"op": "snapshot"})" "\n"
    R"({"op": "metrics_snapshot", "format": "prom", "scope": "service"})" "\n"
    R"({"op": "submit", "model": "NoSuchNet"})" "\n"
    R"({"op": "bogus_op"})" "\n"
    R"({"op": "advance", "to_s": 1.0, "to_s": 2.0})" "\n"
    R"({"op": "run"})" "\n"
    R"({"op": "metrics_snapshot"})" "\n"
    R"({"op": "shutdown"})" "\n";

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path
                         << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  ASSERT_TRUE(os.good()) << "cannot write " << path;
  os << content;
}

std::unique_ptr<ServiceSession> MakeSession(const SessionOverrides& overrides,
                                            const std::string& scenario = "scenario.json") {
  std::string error;
  std::unique_ptr<ServiceSession> session = ServiceSession::Create(
      ReadFileOrDie(GoldenPath(scenario)), scenario, overrides, &error);
  EXPECT_NE(session, nullptr) << error;
  return session;
}

struct ReplayOutput {
  std::string responses;
  ReplayResult result;
};

ReplayOutput Replay(ServiceSession* session, const std::string& log) {
  std::istringstream in(log);
  std::ostringstream out;
  ReplayOutput r;
  r.result = RunReplay(session, in, out);
  r.responses = out.str();
  return r;
}

// The deterministic final-state fingerprint: the full simulator run report
// (metrics, per-interval series, flight recorder) with profiling excluded.
std::string SimReport(Simulator* sim) {
  ExportOptions options;
  options.include_profiling = false;
  return ExportJsonReportString(sim->registry(), &sim->series(),
                                &sim->flight_recorder(), options);
}

TEST(ServiceReplayTest, GoldenSessionByteForByteAcrossThreads) {
  SessionOverrides overrides;
  overrides.threads = 1;
  std::unique_ptr<ServiceSession> session = MakeSession(overrides);
  ASSERT_NE(session, nullptr);
  const ReplayOutput base = Replay(session.get(), kBasicRequests);
  EXPECT_TRUE(base.result.shutdown);
  EXPECT_EQ(base.result.exit_code, 0);
  EXPECT_EQ(base.result.errors, 3);  // the three deliberately bad lines

  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    WriteFileOrDie(RequestsPath(), kBasicRequests);
    WriteFileOrDie(ResponsesPath(), base.responses);
    GTEST_SKIP() << "regenerated " << RequestsPath() << " and "
                 << ResponsesPath();
  }

  // The committed request log is the embedded one (it is also what check.sh
  // and external replays consume), and the committed responses match.
  EXPECT_EQ(ReadFileOrDie(RequestsPath()), kBasicRequests)
      << "basic.requests.ndjson drifted from the test's embedded log; "
         "regenerate with OPTIMUS_REGEN_GOLDEN=1";
  EXPECT_EQ(base.responses, ReadFileOrDie(ResponsesPath()))
      << "responses drifted from the committed golden; if intended, "
         "regenerate with OPTIMUS_REGEN_GOLDEN=1 and commit";

  // Bitwise identity across thread counts — responses AND final report.
  const std::string base_report = SimReport(&session->simulator());
  for (const int threads : {2, 8}) {
    SessionOverrides t_overrides;
    t_overrides.threads = threads;
    std::unique_ptr<ServiceSession> t_session = MakeSession(t_overrides);
    ASSERT_NE(t_session, nullptr);
    const ReplayOutput out = Replay(t_session.get(), kBasicRequests);
    EXPECT_EQ(out.responses, base.responses) << "threads=" << threads;
    EXPECT_EQ(SimReport(&t_session->simulator()), base_report)
        << "threads=" << threads;
  }
}

// The basic session on the events engine. Its advances end inside
// scheduling spans (900 s, then 1500 s), so every response's now_s pins where
// the event loop leaves the clock between rounds.
TEST(ServiceReplayTest, EventsEngineGoldenSessionByteForByteAcrossThreads) {
  const std::string golden_path = GoldenPath("basic_events.responses.ndjson");
  for (const int threads : {1, 4}) {
    SessionOverrides overrides;
    overrides.threads = threads;
    overrides.engine = SimEngine::kEvents;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), kBasicRequests);
    EXPECT_TRUE(out.result.shutdown);
    EXPECT_EQ(out.result.errors, 3);  // the three deliberately bad lines
    if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
      WriteFileOrDie(golden_path, out.responses);
      GTEST_SKIP() << "regenerated " << golden_path;
    }
    EXPECT_EQ(out.responses, ReadFileOrDie(golden_path)) << "threads=" << threads;
  }
}

TEST(ServiceReplayTest, WhatIfBurstGoldenByteForByteAcrossThreads) {
  // The committed what-if burst session: runs of back-to-back what_if
  // queries between submits, kills and advances; candidates that reuse a
  // live id, a killed id, and one next id across different models; and a
  // wave of wide jobs that makes admitted rounds bind. Every answer must
  // match the committed golden whether the query reused a cached baseline
  // or followed a mutation.
  const std::string requests = ReadFileOrDie(BurstRequestsPath());
  for (const int threads : {1, 8}) {
    SessionOverrides overrides;
    overrides.threads = threads;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), requests);
    EXPECT_TRUE(out.result.shutdown);
    EXPECT_EQ(out.result.errors, 0);
    if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
      WriteFileOrDie(BurstResponsesPath(), out.responses);
      GTEST_SKIP() << "regenerated " << BurstResponsesPath();
    }
    EXPECT_EQ(out.responses, ReadFileOrDie(BurstResponsesPath()))
        << "threads=" << threads
        << ": responses drifted from the committed golden; if intended, "
           "regenerate with OPTIMUS_REGEN_GOLDEN=1 and commit";
  }
}

TEST(ServiceReplayTest, FlightWrapGoldenByteForByteAcrossThreads) {
  // The committed flight-ring session, on its own genesis (120 jobs on 72
  // servers): report snapshots with an empty ring, with nothing new since the
  // previous export, with a few new events, and after one advance that
  // records more events than the 256-slot ring holds; plus a prom and a
  // service-scope snapshot. Its responses came from the exporter that
  // re-encoded every retained event on each export, so a change that moves
  // them is a flight-cache bug, not a golden to regen.
  const std::string requests = ReadFileOrDie(GoldenPath("flight_wrap.requests.ndjson"));
  const std::string golden = ReadFileOrDie(GoldenPath("flight_wrap.responses.ndjson"));
  for (const int threads : {1, 8}) {
    SessionOverrides overrides;
    overrides.threads = threads;
    std::unique_ptr<ServiceSession> session =
        MakeSession(overrides, "flight_wrap.scenario.json");
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), requests);
    EXPECT_TRUE(out.result.shutdown);
    EXPECT_EQ(out.result.errors, 0);
    EXPECT_GT(session->simulator().flight_recorder().total_recorded(),
              session->simulator().flight_recorder().capacity());
    EXPECT_EQ(out.responses, golden) << "threads=" << threads;
  }
}

TEST(ServiceReplayTest, SyntheticSmokeLogMatchesCommittedFixture) {
  // The 200-request smoke log CI pipes through the daemon: 198 generated
  // requests plus a metrics epilogue and shutdown. Committed so shell-level
  // smoke tests need no generator binary; this test keeps it in sync.
  std::ostringstream log;
  GenerateSyntheticRequests(198, /*seed=*/21, log);
  log << R"({"op": "metrics_snapshot", "format": "prom", "scope": "service"})"
      << "\n"
      << R"({"op": "shutdown"})" << "\n";

  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    WriteFileOrDie(SmokePath(), log.str());
    GTEST_SKIP() << "regenerated " << SmokePath();
  }
  EXPECT_EQ(ReadFileOrDie(SmokePath()), log.str())
      << "smoke.requests.ndjson drifted from the generator; regenerate with "
         "OPTIMUS_REGEN_GOLDEN=1";

  // And it replays cleanly: every request answered ok, auditor quiet.
  std::unique_ptr<ServiceSession> session = MakeSession(SessionOverrides{});
  ASSERT_NE(session, nullptr);
  const ReplayOutput out = Replay(session.get(), log.str());
  EXPECT_EQ(out.result.requests, 200);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_TRUE(out.result.shutdown);
  EXPECT_EQ(out.result.exit_code, 0);
}

TEST(ServiceReplayTest, SyntheticLoadBitwiseIdenticalAcrossThreads) {
  // The load generator's default read-heavy mix (metric snapshots in both
  // formats, what-if queries, advances, submit/kill pairs) at 2,000
  // requests: the responses, the deterministic service counters and the
  // run-to-completion report must not depend on --threads.
  std::ostringstream log;
  GenerateSyntheticRequests(2000, /*seed=*/17, log);
  ExportOptions options;
  options.include_profiling = false;
  std::string base_responses, base_service, base_report;
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SessionOverrides overrides;
    overrides.threads = threads;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), log.str());
    EXPECT_EQ(out.result.requests, 2000);
    EXPECT_EQ(out.result.exit_code, 0);
    const std::string service =
        ExportPrometheusString(session->service_registry(), options);
    session->simulator().Run();
    const std::string report = SimReport(&session->simulator());
    if (threads == 1) {
      base_responses = out.responses;
      base_service = service;
      base_report = report;
    } else {
      EXPECT_EQ(out.responses, base_responses);
      EXPECT_EQ(service, base_service);
      EXPECT_EQ(report, base_report);
    }
  }
}

TEST(ServiceReplayTest, EventsEngineExactAcrossThreads) {
  std::string base_responses, base_report;
  for (const int threads : {1, 8}) {
    SessionOverrides overrides;
    overrides.engine = SimEngine::kEvents;
    overrides.threads = threads;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), kBasicRequests);
    EXPECT_EQ(out.result.exit_code, 0);
    const std::string report = SimReport(&session->simulator());
    if (threads == 1) {
      base_responses = out.responses;
      base_report = report;
    } else {
      EXPECT_EQ(out.responses, base_responses) << "threads=" << threads;
      EXPECT_EQ(report, base_report) << "threads=" << threads;
    }
  }
}

TEST(ServiceReplayTest, CrossEngineAgreementWithinTolerance) {
  // The §16 parity contract carried over to service mode: the same online
  // session (submits, a kill, advances, then run-to-completion) lands both
  // engines within the documented JCT tolerance.
  constexpr double kJctTolerance = 0.15;  // docs/ALGORITHMS.md section 16
  double avg_jct[2] = {0.0, 0.0};
  int64_t completed[2] = {0, 0};
  int i = 0;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SessionOverrides overrides;
    overrides.engine = engine;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), kBasicRequests);
    EXPECT_EQ(out.result.exit_code, 0);
    const RunMetrics& m = session->simulator().metrics();
    avg_jct[i] = m.avg_jct_s;
    completed[i] = m.completed_jobs;
    ++i;
  }
  EXPECT_EQ(completed[0], completed[1]);
  ASSERT_GT(avg_jct[0], 0.0);
  const double rel = std::abs(avg_jct[0] - avg_jct[1]) / avg_jct[0];
  EXPECT_LE(rel, kJctTolerance)
      << "interval avg_jct=" << avg_jct[0] << " events avg_jct=" << avg_jct[1];
}

TEST(ServiceReplayTest, SnapshotRestoreBitwiseRemainderOfRun) {
  // Drive a prefix on session A, snapshot it, restore a fresh session B from
  // the snapshot (through the protocol, as a real client would), then run
  // the identical suffix on both: responses and final reports must match
  // byte for byte.
  const std::string prefix =
      R"({"op": "advance", "to_s": 900.0})" "\n"
      R"({"op": "submit", "model": "Seq2Seq", "job_id": 100, "arrival_s": 1200.0})" "\n"
      R"({"op": "advance", "dt_s": 600.0})" "\n";
  // Explicit ids: the two sessions' request sequence numbers differ (A
  // served the prefix, B served one restore), and default ids echo the
  // sequence — the determinism contract is over request bytes, ids included.
  const std::string suffix =
      R"({"op": "what_if", "id": 901, "model": "ResNet-50"})" "\n"
      R"({"op": "advance", "id": 902, "dt_s": 900.0})" "\n"
      R"({"op": "run", "id": 903})" "\n"
      R"({"op": "metrics_snapshot", "id": 904})" "\n";

  std::unique_ptr<ServiceSession> a = MakeSession(SessionOverrides{});
  ASSERT_NE(a, nullptr);
  Replay(a.get(), prefix);

  // Build the restore request from the session's snapshot state — the same
  // pair the `snapshot` op returns.
  JsonObject restore;
  restore.Set("op", "restore");
  restore.Set("genesis", a->genesis_text());
  restore.Set("journal", a->journal());
  EXPECT_EQ(a->journal().size(), 3u);  // the three mutating prefix lines

  std::unique_ptr<ServiceSession> b = MakeSession(SessionOverrides{});
  ASSERT_NE(b, nullptr);
  bool shutdown = false;
  const std::string restore_resp =
      b->HandleLine(restore.ToCompactString(), &shutdown);
  EXPECT_NE(restore_resp.find("\"ok\":true"), std::string::npos)
      << restore_resp;
  EXPECT_EQ(b->simulator().now_s(), a->simulator().now_s());

  const ReplayOutput rest_a = Replay(a.get(), suffix);
  const ReplayOutput rest_b = Replay(b.get(), suffix);
  EXPECT_EQ(rest_a.responses, rest_b.responses);
  EXPECT_EQ(rest_a.result.errors, 0);
  EXPECT_EQ(SimReport(&a->simulator()), SimReport(&b->simulator()));
}

TEST(ServiceReplayTest, RelativeAdvancesAccumulateOnEventsEngine) {
  // The event engine stops at its last event, so now_s can trail the time an
  // advance asked for. dt_s builds on the furthest time already advanced to,
  // so n 30 s steps land where one advance to n * 30 s does — including past
  // the first scheduling round at 600 s, which steps from now_s never reach.
  for (const int steps : {3, 40}) {
    SCOPED_TRACE("steps=" + std::to_string(steps));
    SessionOverrides overrides;
    overrides.engine = SimEngine::kEvents;
    std::unique_ptr<ServiceSession> stepped = MakeSession(overrides);
    std::unique_ptr<ServiceSession> direct = MakeSession(overrides);
    ASSERT_NE(stepped, nullptr);
    ASSERT_NE(direct, nullptr);
    // Explicit ids on the compared tail so its response bytes can match.
    const std::string tail = R"({"op": "metrics_snapshot", "id": 1000})" "\n";
    std::string log;
    for (int i = 0; i < steps; ++i) {
      log += R"({"op": "advance", "id": )" + std::to_string(i + 1) +
             R"(, "dt_s": 30})" "\n";
    }
    const std::string direct_log = R"({"op": "advance", "id": )" +
                                   std::to_string(steps) + R"(, "to_s": )" +
                                   std::to_string(30 * steps) + "}\n";
    const ReplayOutput a = Replay(stepped.get(), log + tail);
    const ReplayOutput b = Replay(direct.get(), direct_log + tail);
    EXPECT_EQ(a.result.errors, 0);
    EXPECT_EQ(b.result.errors, 0);
    const std::string last = R"({"id":)" + std::to_string(steps) + ",";
    const size_t a_tail = a.responses.find(last);
    const size_t b_tail = b.responses.find(last);
    ASSERT_NE(a_tail, std::string::npos) << a.responses;
    ASSERT_NE(b_tail, std::string::npos) << b.responses;
    EXPECT_EQ(a.responses.substr(a_tail), b.responses.substr(b_tail));
    EXPECT_EQ(SimReport(&stepped->simulator()), SimReport(&direct->simulator()));

    // A target behind the furthest one already reached is in the past.
    const ReplayOutput back = Replay(
        stepped.get(), R"({"op": "advance", "to_s": )" + std::to_string(15 * steps) + "}\n");
    EXPECT_EQ(back.result.errors, 1) << back.responses;
  }
}

TEST(ServiceReplayTest, ReplayedRunMatchesBatchSimulatorRun) {
  // A session that only advances and runs — no online mutations — must land
  // on the exact report a direct batch Simulator over the same scenario
  // produces, chunked stepping and all.
  std::unique_ptr<ServiceSession> session = MakeSession(SessionOverrides{});
  ASSERT_NE(session, nullptr);
  const std::string log =
      R"({"op": "advance", "to_s": 1000.0})" "\n"
      R"({"op": "advance", "dt_s": 1500.0})" "\n"
      R"({"op": "run"})" "\n";
  const ReplayOutput out = Replay(session.get(), log);
  EXPECT_EQ(out.result.errors, 0);

  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(ParseScenario(ReadFileOrDie(ScenarioPath()), "scenario.json",
                            &scenario, &error))
      << error;
  scenario.sim.obs.per_interval_series = true;  // mirror the session's config
  Simulator batch(scenario.MakeSimConfig(scenario.policies[0], 0),
                  scenario.cluster.Build(), scenario.JobsForRepeat(0));
  batch.Run();

  EXPECT_EQ(SimReport(&session->simulator()), SimReport(&batch))
      << "service-mode chunked run drifted from the batch simulator";
}

// Integers outside their type, and per-job caps past the speed-surface grid
// cap, are answered ok=false naming the field: no crash, no wrapped value, no
// giant grid.
TEST(ServiceReplayTest, OutsideIntAndGridCapsAreRejectedNotFatal) {
  std::unique_ptr<ServiceSession> session = MakeSession(SessionOverrides{});
  ASSERT_NE(session, nullptr);
  const ReplayOutput out = Replay(
      session.get(),
      "{\"op\": \"what_if\", \"model\": \"CNN-rand\", \"max_workers\": 3000000000}\n"
      "{\"op\": \"what_if\", \"model\": \"CNN-rand\", \"max_workers\": 4294967297}\n"
      "{\"op\": \"what_if\", \"model\": \"CNN-rand\", \"max_workers\": 100000000}\n"
      "{\"op\": \"submit\", \"model\": \"CNN-rand\", \"job_id\": 4294967297}\n"
      "{\"op\": \"kill\", \"job_id\": 4294967297}\n"
      "{\"op\": \"metrics_snapshot\", \"id\": 1e300}\n");
  EXPECT_EQ(out.result.requests, 6);
  EXPECT_EQ(out.result.errors, 6);
  EXPECT_EQ(out.result.exit_code, 0);
  std::istringstream lines(out.responses);
  const char* fields[] = {"max_workers", "max_workers", "max_workers",
                          "job_id",      "job_id",      "id"};
  std::string line;
  for (const char* field : fields) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
    EXPECT_NE(line.find(std::string("\\\"") + field + "\\\""), std::string::npos) << line;
  }
  EXPECT_NE(out.responses.find("max(max_ps, 1) * max_workers must be <= 1048576"),
            std::string::npos)
      << out.responses;
}

TEST(ServiceReplayTest, InvalidOverrideIsRejectedNotFatal) {
  SessionOverrides overrides;
  overrides.threads = -2;
  std::string error;
  const std::unique_ptr<ServiceSession> session = ServiceSession::Create(
      ReadFileOrDie(ScenarioPath()), "scenario.json", overrides, &error);
  EXPECT_EQ(session, nullptr);
  EXPECT_NE(error.find("threads:"), std::string::npos) << error;
}

}  // namespace
}  // namespace optimus
