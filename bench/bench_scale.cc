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
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace {

using namespace optimus;

SimulatorConfig ScaleCellConfig() {
  SimulatorConfig config;
  config.seed = 7;
  config.engine = SimEngine::kEvents;
  config.trace_hash_only = true;
  config.threads = 1;
  config.interval_s = 600.0;
  return config;
}

// One scale cell, run inside a dedicated child process so VmHWM is the
// cell's own peak. Arrivals are spread so at most ~8k jobs are live at once;
// the rest of a million-job workload stays in the flat pending-spec queue.
int RunScaleCell(int num_jobs, int num_servers) {
  constexpr int kHorizonIntervals = 12;
  constexpr double kTargetActiveJobs = 8000.0;
  SimulatorConfig config = ScaleCellConfig();
  config.max_sim_time_s = kHorizonIntervals * config.interval_s;

  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  const double horizon_s = config.max_sim_time_s;
  workload.arrival_window_s =
      std::max(horizon_s, horizon_s * num_jobs / kTargetActiveJobs);

  Rng workload_rng(config.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator sim(config,
                BuildUniformCluster(num_servers, Resources(16, 80, 0, 1)),
                std::move(specs));
  const auto start = std::chrono::steady_clock::now();
  const RunMetrics metrics = sim.Run();
  const auto end = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(end - start).count();

  // Single machine-readable line the parent scrapes into BENCH_scale.json.
  std::cout << "CELL jobs=" << num_jobs << " servers=" << num_servers
            << " materialized=" << sim.materialized_jobs()
            << " completed=" << metrics.completed_jobs
            << " wall_s=" << wall_s << " sim_s=" << sim.now_s()
            << " peak_rss_mib=" << PeakRssMib()
            << " trace_digest=" << DigestHex(sim.trace().digest())
            << " trace_records=" << sim.trace().size()
            << " schedule_s=" << metrics.wall_schedule_s << "\n";
  return 0;
}

bool RunScaleSweep(const std::string& self_exe, const std::vector<int>& job_counts,
                   const std::vector<int>& server_counts, std::vector<JsonObject>* rows,
                   std::string* why) {
  TablePrinter table({"jobs", "servers", "materialized", "completed",
                      "wall (s)", "sim s / wall s", "peak RSS (MiB)"});
  for (const int servers : server_counts) {
    for (const int jobs : job_counts) {
      const std::string cmd = self_exe + " --cell=" + std::to_string(jobs) +
                              "x" + std::to_string(servers);
      std::cout << "  running cell " << jobs << " jobs x " << servers
                << " servers...\n"
                << std::flush;
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
        *why = "cell " + std::to_string(jobs) + "x" + std::to_string(servers) +
               " failed (exit " + std::to_string(status) + ")";
        return false;
      }
      // key=value scrape; numeric fields go in as numbers, the digest as a
      // string.
      JsonObject row;
      std::istringstream fields(cell_line);
      std::string field;
      double wall_s = 0.0;
      double sim_s = 0.0;
      std::string table_materialized, table_completed, table_rss;
      while (fields >> field) {
        const size_t eq = field.find('=');
        if (eq == std::string::npos) {
          continue;
        }
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "trace_digest") {
          row.Set(key, value);
        } else {
          row.Set(key, std::stod(value));
        }
        if (key == "wall_s") wall_s = std::stod(value);
        if (key == "sim_s") sim_s = std::stod(value);
        if (key == "materialized") table_materialized = value;
        if (key == "completed") table_completed = value;
        if (key == "peak_rss_mib") table_rss = value;
      }
      row.Set("mode", "streaming+events, hash-only trace");
      row.Set("sim_s_per_wall_s", wall_s > 0.0 ? sim_s / wall_s : 0.0);
      rows->push_back(row);
      table.AddRow({std::to_string(jobs), std::to_string(servers),
                    table_materialized, table_completed,
                    TablePrinter::FormatDouble(wall_s, 2),
                    TablePrinter::FormatDouble(
                        wall_s > 0.0 ? sim_s / wall_s : 0.0, 0),
                    table_rss});
    }
  }
  table.Print(std::cout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_scale.json");
  // Internal: run one scale cell in this process and print its CELL line.
  const std::string cell = flags.GetString("cell", "");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }
  if (!cell.empty()) {
    const size_t x = cell.find('x');
    OPTIMUS_CHECK(x != std::string::npos) << "--cell expects <jobs>x<servers>";
    return RunScaleCell(std::stoi(cell.substr(0, x)),
                        std::stoi(cell.substr(x + 1)));
  }

  PrintExperimentHeader(
      "EXT: scheduling at scale",
      "Streaming admission at {10k,100k,1M} jobs x {16k,100k} servers",
      "The 1M-job run's peak RSS is bounded by the active-job set, not the "
      "total job count");

  JsonObject section;
  section.Set("smoke", smoke);

  std::cout << "\nScale sweep (one child process per cell):\n";
  std::vector<JsonObject> scale_rows;
  std::string why;
  const bool ok =
      smoke ? RunScaleSweep(argv[0], {10000}, {16000}, &scale_rows, &why)
            : RunScaleSweep(argv[0], {10000, 100000, 1000000}, {16000, 100000},
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
