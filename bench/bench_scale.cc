// Million-job / 100k-server scale sweep (admission on arrival, retirement on
// completion) (BENCH_scale.json).
//
//   scale — {10k, 100k, 1M} jobs x {16k, 100k} servers, one child process
//       per cell (re-exec with --cell): hash-only trace + the event
//       engine. The child process reports its own VmHWM,
//       so peak-RSS columns are per-cell, not a sweep-wide high-water mark.
//       Arrivals spread so the active set stays bounded: peak RSS is
//       O(active jobs) + the flat pending-spec queue, not O(total jobs
//       materialized). --smoke (tools/check.sh and CI) runs the 10k x 16k
//       cell alone, through the same child-process path.
//
// Bitwise determinism across threads, engines and the no-op knobs is not
// measured here: tier-1's determinism sweep (tests/determinism_sweep_test.cc)
// runs every committed scenario, scenarios/scale_smoke.json included, on the
// shared RunFingerprint (src/sim/run_fingerprint.h).

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"

namespace {

using namespace optimus;

// One scale cell, run inside a dedicated child process so VmHWM is the
// cell's own peak. Arrivals are spread so at most ~8k jobs are live at once;
// the rest of a million-job workload stays in the flat pending-spec queue.
int RunScaleCell(const std::string& cell, int num_jobs, int num_servers) {
  constexpr int kHorizonIntervals = 12;
  constexpr double kTargetActiveJobs = 8000.0;
  SimulatorConfig config;
  config.seed = 7;
  config.engine = SimEngine::kEvents;
  config.trace_hash_only = true;
  config.threads = 1;
  config.interval_s = 600.0;
  config.max_sim_time_s = kHorizonIntervals * config.interval_s;

  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  const double horizon_s = config.max_sim_time_s;
  workload.arrival_window_s =
      std::max(horizon_s, horizon_s * num_jobs / kTargetActiveJobs);

  int materialized = 0;
  const CellRun run = RunCell(config, workload, num_servers,
                              [&](const Simulator& sim) {
                                materialized = sim.materialized_jobs();
                              });
  JsonObject row;
  SetPerfRow(&row, cell, run);
  row.Set("jobs", num_jobs);
  row.Set("servers", num_servers);
  row.Set("materialized", materialized);
  row.Set("completed", run.fp.metrics.completed_jobs);
  row.Set("trace_records", run.fp.trace_records);
  row.Set("schedule_s", run.fp.metrics.wall_schedule_s);
  return PrintCellLine(row);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_scale.json");
  // Internal: run one scale cell in this process and print its CELL line.
  const std::string cell = flags.GetString("cell", "");
  if (UnknownFlags(flags)) {
    return 1;
  }
  if (!cell.empty()) {
    const size_t x = cell.find('x');
    OPTIMUS_CHECK(x != std::string::npos) << "--cell expects <jobs>x<servers>";
    return RunScaleCell(cell, std::stoi(cell.substr(0, x)),
                        std::stoi(cell.substr(x + 1)));
  }

  PrintExperimentHeader(
      "EXT: scheduling at scale",
      "Streaming admission at {10k,100k,1M} jobs x {16k,100k} servers",
      "The 1M-job run's peak RSS is bounded by the active-job set, not the "
      "total job count");

  std::vector<std::string> cells;
  for (const int servers : smoke ? std::vector<int>{16000}
                                 : std::vector<int>{16000, 100000}) {
    for (const int jobs : smoke ? std::vector<int>{10000}
                                : std::vector<int>{10000, 100000, 1000000}) {
      cells.push_back(std::to_string(jobs) + "x" + std::to_string(servers));
    }
  }
  JsonObject section;
  section.Set("smoke", smoke);
  std::cout << "\nScale sweep (one child process per cell):\n";
  std::vector<JsonObject> scale_rows;
  std::string why;
  const bool ok = RunChildCells(
      argv[0], cells,
      {"cell", "materialized", "completed", "wall_s", "sim_s_per_wall_s",
       "peak_rss_mib"},
      &scale_rows, &why);
  section.Set("scale_cells", scale_rows);

  if (!ok) {
    std::cerr << "\nFAILURE: " << why << "\n";
  }
  section.Set("ok", ok);
  if (WriteBenchJsonSection(json_path, "scale", section)) {
    std::cout << "wrote section scale to " << json_path << "\n";
  }
  return ok ? 0 : 3;
}
