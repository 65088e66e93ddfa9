// Observability overhead: the interval engine at 1,000 jobs on 16,000 nodes
// with the metrics registry + flight recorder + per-interval series on vs
// off, at 1 and 8 threads. Arrivals spread over the whole 600-interval
// horizon, so every row runs all of it with jobs in flight.
//
// Two gates, both exit 3 on failure:
//   - every row (off/on, any thread count) and every repeat of it must
//     produce a bitwise identical RunFingerprint (src/sim/run_fingerprint.h:
//     metrics without the wall_* profiling fields, trace, event list):
//     observability must never perturb the simulation;
//   - the observability-on rows must stay within 3% of the matching
//     observability-off wall time — telemetry is only free if it stays off
//     the hot paths. The rows run interleaved through RunRepeats
//     (bench/bench_util.h), each on-row right after its off-row, and the gate
//     reads the median of the per-repeat on/off ratios; their IQR is recorded
//     next to it.
// The on-rows' deterministic export fingerprints must also match across
// repeats and thread counts (the subsystem's own determinism contract).

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/stats.h"
#include "src/obs/exporters.h"

namespace {

using namespace optimus;

struct BenchParams {
  int jobs = 1000;
  int nodes = 16000;
  int intervals = 600;
  int repeats = 41;
};

// Median and IQR of the per-repeat overhead of on-row `on` over off-row `off`.
struct Overhead {
  double median = 0.0;
  double iqr = 0.0;
};

Overhead PairedOverhead(const RepeatedRun& off, const RepeatedRun& on) {
  std::vector<double> ratios;
  for (size_t r = 0; r < off.wall_s.size(); ++r) {
    ratios.push_back(on.wall_s[r] / off.wall_s[r] - 1.0);
  }
  return {Median(ratios), Percentile(ratios, 75.0) - Percentile(ratios, 25.0)};
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // --smoke: a seconds-scale subset for tools/check.sh and CI.
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_obs.json");
  if (UnknownFlags(flags)) {
    return 1;
  }

  PrintExperimentHeader(
      "EXT: observability overhead",
      "Metrics registry + flight recorder + per-interval series, on vs off, "
      "at 1 and 8 threads on the 1k-job / 16k-node interval loop",
      "Observability costs <= 3% wall time, perturbs nothing (all rows "
      "bitwise identical), and exports identically across thread counts");

  BenchParams params;
  if (smoke) {
    params = {60, 200, 8, 2};
  }

  // Row i runs at threads_of(i) threads with observability on for odd i, so
  // each on-row runs right after its off-row.
  const std::vector<std::string> cells = {"off@1t", "on@1t", "off@8t", "on@8t"};
  auto threads_of = [](size_t i) { return i < 2 ? 1 : 8; };

  // Each on-row's deterministic export (profiling excluded), registry size
  // and flight-recorder count, from its first repeat; later repeats must
  // export the same bytes.
  std::vector<std::string> exports(cells.size());
  std::vector<size_t> registry_sizes(cells.size());
  std::vector<uint64_t> flight_events(cells.size());
  bool identical = true;
  std::string divergence;
  auto run_row = [&](size_t i) {
    SimulatorConfig sim;
    sim.seed = 7;
    sim.threads = threads_of(i);
    sim.audit = true;
    sim.obs.enabled = i % 2 == 1;
    sim.obs.per_interval_series = sim.obs.enabled;
    sim.max_sim_time_s = params.intervals * sim.interval_s;
    SetLightFaults(&sim);
    WorkloadConfig workload;
    workload.num_jobs = params.jobs;
    workload.arrival_window_s = sim.max_sim_time_s;
    return RunCell(sim, workload, params.nodes, [&](const Simulator& s) {
      if (!sim.obs.enabled) {
        return;
      }
      ExportOptions options;
      options.include_profiling = false;
      std::string exported = ExportPrometheusString(s.registry(), options);
      if (exports[i].empty()) {
        exports[i] = std::move(exported);
        registry_sizes[i] = s.registry().size();
        flight_events[i] = s.flight_recorder().total_recorded();
      } else if (exported != exports[i]) {
        identical = false;
        divergence = cells[i] + " export not deterministic across repeats";
      }
    });
  };
  std::vector<RepeatedRun> runs;
  std::string why;
  if (!RunRepeats(cells, params.repeats, run_row, &runs, &why)) {
    identical = false;
    divergence = why;
  }

  TablePrinter table({"cell", "median wall (s)", "metrics", "flight events"});
  std::vector<JsonObject> json_rows;
  for (size_t i = 0; i < cells.size(); ++i) {
    CellRun& r = runs[i].run;
    if (i > 0 && !r.fp.Matches(runs[0].run.fp, &why)) {
      identical = false;
      divergence = cells[i] + ": " + why;
    }
    r.wall_s = Median(runs[i].wall_s);
    table.AddRow({cells[i], TablePrinter::FormatDouble(r.wall_s, 3),
                  std::to_string(registry_sizes[i]),
                  std::to_string(flight_events[i])});
    JsonObject jr;
    SetPerfRow(&jr, cells[i], r);
    jr.Set("threads", threads_of(i));
    jr.Set("obs", i % 2 == 1);
    jr.Set("registry_size", static_cast<int64_t>(registry_sizes[i]));
    jr.Set("flight_events", static_cast<int64_t>(flight_events[i]));
    json_rows.push_back(jr);
  }
  table.Print(std::cout);

  // The on-rows' deterministic exports must match across thread counts.
  if (exports[1] != exports[3]) {
    identical = false;
    divergence = "exports differ between 1t and 8t";
  }
  // Gate 1: no simulation or export divergence anywhere.
  if (identical) {
    std::cout << "\nall " << cells.size() << " rows x " << params.repeats
              << " repeats bitwise identical (wall_* excluded); export "
                 "identical at 1t and 8t ("
              << registry_sizes[1] << " metrics)\n";
  } else {
    std::cerr << "\nMETRICS DIVERGED: " << divergence << "\n";
  }

  // Gate 2: the median paired overhead within 3% at each thread count.
  const Overhead overhead_1t = PairedOverhead(runs[0], runs[1]);
  const Overhead overhead_8t = PairedOverhead(runs[2], runs[3]);
  // At --smoke scale a row runs in milliseconds and the ratio is timer
  // noise, so the overhead gate only binds at full scale; smoke still gates
  // determinism.
  const bool overhead_ok =
      smoke || (overhead_1t.median <= 0.03 && overhead_8t.median <= 0.03);
  std::cout << "overhead, median of " << params.repeats << " paired repeats (IQR): "
            << TablePrinter::FormatDouble(100.0 * overhead_1t.median, 2) << "% ("
            << TablePrinter::FormatDouble(100.0 * overhead_1t.iqr, 2) << ") @ 1t, "
            << TablePrinter::FormatDouble(100.0 * overhead_8t.median, 2) << "% ("
            << TablePrinter::FormatDouble(100.0 * overhead_8t.iqr, 2)
            << ") @ 8t (gate <= 3%" << (smoke ? ", not enforced in smoke" : "")
            << ")\n";
  if (!overhead_ok) {
    std::cerr << "OBSERVABILITY OVERHEAD EXCEEDS 3%\n";
  }

  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("jobs", params.jobs);
  section.Set("nodes", params.nodes);
  section.Set("intervals", params.intervals);
  section.Set("repeats", params.repeats);
  section.Set("overhead_median_1t", overhead_1t.median);
  section.Set("overhead_iqr_1t", overhead_1t.iqr);
  section.Set("overhead_median_8t", overhead_8t.median);
  section.Set("overhead_iqr_8t", overhead_8t.iqr);
  section.Set("overhead_ok", overhead_ok);
  section.Set("metrics_identical", identical);
  section.Set("rows", json_rows);
  if (WriteBenchJsonSection(json_path, "observability", section)) {
    std::cout << "wrote section observability to " << json_path << "\n";
  }

  return identical && overhead_ok ? 0 : 3;
}
