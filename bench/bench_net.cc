// Network fidelity bench: fabric models and rack-aware placement
// (BENCH_net.json).
//
// Two sections:
//
//   models — flat vs topology vs contention at 1k jobs x 16k servers, one
//       child process per cell (re-exec with --cell=<model>) so peak-RSS
//       columns are per-cell. Shows what the fabric costs: the contention
//       solve's wall-time overhead over the flat constant, and how JCTs move
//       once cross-rack bandwidth is no longer free. Skipped under --smoke.
//
//   rack — the acceptance point: optimus vs optimus_rack (the rack-aware
//       Theorem-1 variant) on scenarios/oversubscribed_fabric.json. Rack-aware
//       placement must win on average JCT when uplinks are oversubscribed.
//       Only this section runs under --smoke (tools/check.sh and CI).
//
// Bitwise determinism of the network solve (its counters included) across
// threads and engines is tier-1's determinism sweep
// (tests/determinism_sweep_test.cc) over both network scenarios,
// allreduce_mix (topology) and oversubscribed_fabric (contention).

#include <cstdio>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/net/network_model.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

namespace {

using namespace optimus;

// ---------------------------------------------------------------------------
// Section 1: fabric-model cells (child process per cell).
// ---------------------------------------------------------------------------

// One model cell, run inside a dedicated child process so VmHWM is the cell's
// own peak. All three cells replay the identical 1k-job workload over a
// 16k-server fabric (racks of 32, 4:1 oversubscribed); only the network model
// changes, so JCT deltas are attributable to the fabric.
int RunModelCell(const std::string& model_name) {
  constexpr int kNumJobs = 1000;
  constexpr int kNumServers = 16000;
  constexpr int kRackSize = 32;

  SimulatorConfig config;
  config.seed = 7;
  config.engine = SimEngine::kEvents;
  config.trace_hash_only = true;
  config.threads = 1;
  config.interval_s = 600.0;
  config.max_sim_time_s = 12 * config.interval_s;
  config.rack_size = kRackSize;
  OPTIMUS_CHECK(ParseNetworkModelName(model_name, &config.net.model))
      << "--cell expects flat|topology|contention, got " << model_name;
  config.net.nic_bps = 125e6;
  config.net.oversubscription = 4.0;

  WorkloadConfig workload;
  workload.num_jobs = kNumJobs;
  workload.arrival_window_s = config.max_sim_time_s;

  Rng workload_rng(config.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator sim(config,
                BuildUniformCluster(kNumServers, Resources(16, 80, 0, 1)),
                std::move(specs));
  const auto start = std::chrono::steady_clock::now();
  const RunMetrics metrics = sim.Run();
  const auto end = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(end - start).count();
  const NetworkStats net =
      sim.network() != nullptr ? sim.network()->stats() : NetworkStats{};

  // Single machine-readable line the parent scrapes into BENCH_net.json.
  std::cout << "CELL model=" << model_name << " jobs=" << kNumJobs
            << " servers=" << kNumServers << " completed="
            << metrics.completed_jobs << " avg_jct_s=" << metrics.avg_jct_s
            << " wall_s=" << wall_s << " sim_s=" << sim.now_s()
            << " peak_rss_mib=" << PeakRssMib()
            << " trace_digest=" << DigestHex(sim.trace().digest())
            << " net_solves=" << net.solves << " net_flows=" << net.flows
            << " net_contended_flows=" << net.contended_flows
            << " net_links=" << net.num_links
            << " net_max_link_util=" << net.max_link_utilization << "\n";
  return 0;
}

bool RunModelSweep(const std::string& self_exe, std::vector<JsonObject>* rows,
                   std::string* why) {
  const std::vector<std::string> models = {"flat", "topology", "contention"};
  TablePrinter table({"model", "completed", "avg JCT (s)", "wall (s)",
                      "peak RSS (MiB)", "flows", "contended"});
  for (const std::string& model : models) {
    const std::string cmd = self_exe + " --cell=" + model;
    std::cout << "  running cell model=" << model << "...\n" << std::flush;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      *why = "failed to spawn " + cmd;
      return false;
    }
    std::string cell_line;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      const std::string line(buf);
      if (line.compare(0, 5, "CELL ") == 0) {
        cell_line = line.substr(5);
      }
    }
    const int status = pclose(pipe);
    if (status != 0 || cell_line.empty()) {
      *why = "cell model=" + model + " failed (exit " + std::to_string(status) +
             ")";
      return false;
    }
    // key=value scrape; numeric fields go in as numbers, model/digest as
    // strings.
    JsonObject row;
    std::istringstream fields(cell_line);
    std::string field;
    std::string completed, avg_jct, wall, rss, flows, contended;
    while (fields >> field) {
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        continue;
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "model" || key == "trace_digest") {
        row.Set(key, value);
      } else {
        row.Set(key, std::stod(value));
      }
      if (key == "completed") completed = value;
      if (key == "avg_jct_s") avg_jct = value;
      if (key == "wall_s") wall = value;
      if (key == "peak_rss_mib") rss = value;
      if (key == "net_flows") flows = value;
      if (key == "net_contended_flows") contended = value;
    }
    rows->push_back(row);
    table.AddRow({model, completed,
                  TablePrinter::FormatDouble(std::stod(avg_jct), 1),
                  TablePrinter::FormatDouble(std::stod(wall), 2), rss, flows,
                  contended});
  }
  table.Print(std::cout);
  return true;
}

// ---------------------------------------------------------------------------
// Section 2: rack-aware placement vs baseline on the oversubscribed fabric.
// ---------------------------------------------------------------------------

bool RunRackComparison(const std::string& scenario_path, JsonObject* section,
                       std::string* why) {
  ScenarioSpec scenario;
  std::string error;
  if (!LoadScenarioFile(scenario_path, &scenario, &error)) {
    *why = "scenario load failed: " + error;
    return false;
  }
  TablePrinter table({"policy", "completed", "avg JCT (s)", "makespan (s)",
                      "contended flows"});
  double baseline_jct = 0.0;
  double rack_jct = 0.0;
  const std::string kPolicies[] = {"optimus", "optimus_rack"};
  for (const std::string& policy : kPolicies) {
    const SimulatorConfig config = scenario.MakeSimConfig(policy);
    const CellRun run =
        RunSim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
    const double avg_jct = run.fp.metrics.avg_jct_s;
    if (policy == "optimus") {
      baseline_jct = avg_jct;
    } else {
      rack_jct = avg_jct;
    }
    table.AddRow({policy, std::to_string(run.fp.metrics.completed_jobs),
                  TablePrinter::FormatDouble(avg_jct, 1),
                  TablePrinter::FormatDouble(run.sim_s, 1),
                  std::to_string(run.net.contended_flows)});
    JsonObject row;
    row.Set("policy", policy);
    row.Set("completed_jobs", run.fp.metrics.completed_jobs);
    row.Set("avg_jct_s", avg_jct);
    row.Set("makespan_s", run.sim_s);
    row.Set("net_solves", run.net.solves);
    row.Set("net_flows", run.net.flows);
    row.Set("net_contended_flows", run.net.contended_flows);
    row.Set("net_max_link_util", run.net.max_link_utilization);
    SetPerfColumns(&row, run.wall_s, run.sim_s);
    section->Set(policy, row);
  }
  table.Print(std::cout);

  const bool rack_aware_wins = rack_jct < baseline_jct;
  const double delta =
      baseline_jct > 0.0 ? (baseline_jct - rack_jct) / baseline_jct : 0.0;
  std::cout << "  rack-aware avg JCT delta: "
            << TablePrinter::FormatDouble(100.0 * delta, 1) << "% ("
            << (rack_aware_wins ? "rack-aware wins" : "BASELINE WINS") << ")\n";
  section->Set("scenario", scenario_path);
  section->Set("avg_jct_delta_frac", delta);
  section->Set("rack_aware_wins", rack_aware_wins);
  if (!rack_aware_wins) {
    *why = "optimus_rack avg JCT " + std::to_string(rack_jct) +
           " did not beat optimus " + std::to_string(baseline_jct) + " on " +
           scenario_path;
  }
  return rack_aware_wins;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_net.json");
  const std::string fabric_scenario = flags.GetString(
      "fabric_scenario", "scenarios/oversubscribed_fabric.json");
  // Internal: run one fabric-model cell in this process, print its CELL line.
  const std::string cell = flags.GetString("cell", "");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }
  if (!cell.empty()) {
    return RunModelCell(cell);
  }

  PrintExperimentHeader(
      "EXT: network fidelity",
      "Fabric models (flat/topology/contention), ring all-reduce, and "
      "rack-aware Theorem-1 placement",
      "network.model=flat reproduces the Eqn-2 constant bitwise; "
      "rack-aware placement beats the baseline "
      "on average JCT when rack uplinks are 4:1 oversubscribed");

  bool ok = true;
  std::string failure;
  JsonObject section;
  section.Set("smoke", smoke);

  if (!smoke) {
    std::cout << "\nFabric-model sweep (one child process per cell):\n";
    std::vector<JsonObject> model_rows;
    std::string model_why;
    if (!RunModelSweep(argv[0], &model_rows, &model_why)) {
      ok = false;
      failure = model_why;
    }
    section.Set("models", model_rows);
  }

  std::cout << "\nRack-aware placement on " << fabric_scenario << ":\n";
  JsonObject rack_section;
  std::string rack_why;
  if (!RunRackComparison(fabric_scenario, &rack_section, &rack_why)) {
    ok = false;
    failure = rack_why;
  }
  section.Set("rack", rack_section);

  if (!ok) {
    std::cerr << "\nFAILURE: " << failure << "\n";
  }
  section.Set("ok", ok);
  if (WriteBenchJsonSection(json_path, "net", section)) {
    std::cout << "wrote section net to " << json_path << "\n";
  }
  return ok ? 0 : 3;
}
