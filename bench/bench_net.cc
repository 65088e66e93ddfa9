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

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/net/network_model.h"
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

  const CellRun run = RunCell(config, workload, kNumServers);
  JsonObject row;
  SetPerfRow(&row, model_name, run);
  row.Set("jobs", kNumJobs);
  row.Set("servers", kNumServers);
  row.Set("completed", run.fp.metrics.completed_jobs);
  row.Set("avg_jct_s", run.fp.metrics.avg_jct_s);
  row.Set("net_solves", run.net.solves);
  row.Set("net_flows", run.net.flows);
  row.Set("net_contended_flows", run.net.contended_flows);
  row.Set("net_links", run.net.num_links);
  row.Set("net_max_link_util", run.net.max_link_utilization);
  return PrintCellLine(row);
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
    SetPerfRow(&row, policy, run);
    row.Set("completed_jobs", run.fp.metrics.completed_jobs);
    row.Set("avg_jct_s", avg_jct);
    row.Set("net_solves", run.net.solves);
    row.Set("net_flows", run.net.flows);
    row.Set("net_contended_flows", run.net.contended_flows);
    row.Set("net_max_link_util", run.net.max_link_utilization);
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
  if (UnknownFlags(flags)) {
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
    if (!RunChildCells(argv[0], {"flat", "topology", "contention"},
                       {"cell", "completed", "avg_jct_s", "wall_s",
                        "peak_rss_mib", "net_flows", "net_contended_flows"},
                       &model_rows, &model_why)) {
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
