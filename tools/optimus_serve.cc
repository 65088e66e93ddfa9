// optimus_serve — long-running scheduler service over the simulator.
//
// Wraps one live Simulator (built from a scenario-v2 file) behind the
// newline-delimited JSON protocol documented in docs/SERVICE.md: submit /
// kill jobs online, run what-if admission queries, advance simulated time,
// snapshot and restore sessions, and export the metrics registry — over
// stdin/stdout by default or a Unix-domain socket with --socket.
//
// Replay mode (--replay) streams a recorded request log through the session
// and exits; because responses carry no wall-clock values, the response
// stream is bitwise identical across runs and --threads settings — recorded
// sessions double as regression goldens (tests/golden/serve/).
//
// Exit codes: 0 clean, 2 usage/config errors, 3 invariant-audit violations.
//
// Examples:
//   optimus_serve --scenario=scenarios/smoke/grid_a.json
//   optimus_serve --scenario=s.json --engine=events --threads=8
//   optimus_serve --scenario=s.json --replay=session.ndjson --replay-out=resp.ndjson
//   optimus_serve --scenario=s.json --socket=/tmp/optimus.sock

#include <fstream>
#include <iostream>
#include <sstream>

#include "src/common/flags.h"
#include "src/obs/exporters.h"
#include "src/sched/scheduler_registry.h"
#include "src/service/replay.h"
#include "src/service/server.h"
#include "src/service/session.h"
#include "src/workload/scenario.h"

namespace {

using namespace optimus;

std::string Usage() {
  return "optimus_serve: online scheduling service over the cluster simulator\n"
         "\n"
         "Flags:\n"
         "  --scenario=FILE             genesis scenario (scenario-v2 JSON; required)\n"
         "  --policy=NAME               override the scenario's policy\n"
         "  --engine=interval|events    override the scenario's engine\n"
         "  --seed=N                    override the scenario's seed\n"
         "  --threads=N                 simulator threads, the caller included\n"
         "                              (responses are bitwise identical for any value)\n"
         "  --socket=PATH               serve a Unix-domain socket instead of stdio\n"
         "  --replay=FILE               replay a request log and exit\n"
         "  --replay-out=FILE           write replay responses here (default stdout)\n"
         "  --metrics-out=PATH          export the service registry at exit\n"
         "  --metrics-format=prom|json  export format (default prom); includes the\n"
         "                              profiling latency histogram\n"
         "  --help                      this message\n"
         "\n"
         "Protocol: one JSON request per line, one JSON response line per request\n"
         "(docs/SERVICE.md). Exit codes: 0 clean, 2 usage/config, 3 audit violation.\n";
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout << Usage();
    return 0;
  }
  const std::string scenario_path = flags.GetString("scenario", "");
  const std::string policy = flags.GetString("policy", "");
  const bool engine_given = flags.Has("engine");
  const std::string engine_name = flags.GetString("engine", "interval");
  const bool seed_given = flags.Has("seed");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int threads = flags.GetInt32("threads", 0);
  const std::string socket_path = flags.GetString("socket", "");
  const std::string replay_path = flags.GetString("replay", "");
  const std::string replay_out = flags.GetString("replay-out", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string metrics_format = flags.GetString("metrics-format", "prom");

  const std::vector<std::string> unknown = flags.UnconsumedKeys();
  if (!unknown.empty()) {
    std::cerr << "unknown flag(s):";
    for (const std::string& k : unknown) {
      std::cerr << " --" << k;
    }
    std::cerr << "\n\n" << Usage();
    return 2;
  }
  if (scenario_path.empty()) {
    std::cerr << "--scenario is required\n\n" << Usage();
    return 2;
  }
  if (metrics_format != "prom" && metrics_format != "json") {
    std::cerr << "unknown --metrics-format '" << metrics_format
              << "' (expected prom|json)\n";
    return 2;
  }
  if (!socket_path.empty() && !replay_path.empty()) {
    std::cerr << "--socket and --replay are mutually exclusive\n";
    return 2;
  }

  SessionOverrides overrides;
  overrides.policy = policy;
  overrides.threads = threads;
  if (engine_given) {
    SimEngine engine = SimEngine::kInterval;
    if (!ParseSimEngine(engine_name, &engine)) {
      std::cerr << "unknown --engine '" << engine_name
                << "' (expected interval|events)\n";
      return 2;
    }
    overrides.engine = engine;
  }
  if (seed_given) {
    overrides.seed = seed;
  }

  std::string genesis;
  {
    std::ifstream in(scenario_path);
    if (!in) {
      std::cerr << "cannot read " << scenario_path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    genesis = buffer.str();
  }
  std::string error;
  std::unique_ptr<ServiceSession> session =
      ServiceSession::Create(std::move(genesis), scenario_path,
                             std::move(overrides), &error);
  if (session == nullptr) {
    std::cerr << "bad scenario: " << error << "\n";
    return 2;
  }

  int exit_code = 0;
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::cerr << "cannot read " << replay_path << "\n";
      return 2;
    }
    ReplayResult result;
    if (replay_out.empty()) {
      result = RunReplay(session.get(), in, std::cout);
    } else {
      std::ofstream out(replay_out);
      if (!out) {
        std::cerr << "cannot write " << replay_out << "\n";
        return 2;
      }
      result = RunReplay(session.get(), in, out);
    }
    std::cerr << "replayed " << result.requests << " request(s), "
              << result.errors << " error(s)\n";
    exit_code = result.exit_code;
  } else if (!socket_path.empty()) {
    exit_code = ServeUnixSocket(session.get(), socket_path);
  } else {
    const ReplayResult result = ServeStream(session.get(), std::cin, std::cout);
    exit_code = result.exit_code;
  }

  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (!os) {
      std::cerr << "cannot write " << metrics_out << "\n";
      return 2;
    }
    ExportOptions options;  // profiling included: the latency histogram is the point
    if (metrics_format == "json") {
      ExportJsonReport(session->service_registry(), nullptr, nullptr, os, options);
    } else {
      ExportPrometheus(session->service_registry(), os, options);
    }
    std::cerr << "wrote " << session->service_registry().size()
              << " service metric(s) (" << metrics_format << ") to "
              << metrics_out << "\n";
  }
  return exit_code;
}
