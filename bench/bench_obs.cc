// Observability overhead: the full interval loop at 1,000 jobs on 16,000
// nodes with the metrics registry + flight recorder + per-interval series on
// vs off, at 1 and 8 threads.
//
// Two gates, both exit 3 on failure:
//   - every row (off/on, any thread count) must produce a bitwise identical
//     RunFingerprint (src/sim/run_fingerprint.h: metrics without the wall_*
//     profiling fields, trace, event list): observability must never perturb
//     the simulation;
//   - the observability-on rows must stay within 3% of the matching
//     observability-off wall time — telemetry is only free if it stays off
//     the hot paths.
// The on-rows' deterministic export fingerprints must also match across
// thread counts (the subsystem's own determinism contract).

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/obs/exporters.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace {

using namespace optimus;

// 600 intervals keeps each row in the seconds range — the interval engine's
// fast path makes shorter runs finish in tens of milliseconds, where a 3%
// wall-clock comparison is pure timer noise.
struct BenchParams {
  int jobs = 1000;
  int nodes = 16000;
  int intervals = 600;
  uint64_t seed = 7;
};

struct RowSpec {
  std::string label;
  int threads = 1;
  bool obs = false;
};

struct RowResult {
  RunFingerprint fp;
  double wall_s = 0.0;
  // Deterministic observability fingerprint (empty for obs-off rows).
  std::string export_fp;
  size_t registry_size = 0;
  uint64_t flight_events = 0;
};

RowResult RunRowOnce(const BenchParams& params, const RowSpec& row) {
  SimulatorConfig sim;
  sim.seed = params.seed;
  sim.threads = row.threads;
  sim.audit = true;
  sim.obs.enabled = row.obs;
  sim.obs.per_interval_series = row.obs;
  // A light fault load so the flight recorder and the fault counters see
  // real traffic instead of being measured at zero.
  std::string error;
  OPTIMUS_CHECK(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;slow@2400:factor=0.8,duration=1800",
      &sim.fault.plan, &error))
      << error;
  sim.fault.task_failure_prob = 0.005;
  sim.fault.checkpoint_period_s = 3600.0;

  WorkloadConfig workload;
  workload.num_jobs = params.jobs;
  workload.arrival_window_s = 5 * sim.interval_s;

  Rng workload_rng(sim.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator simulator(sim, BuildUniformCluster(params.nodes, Resources(16, 80, 0, 1)),
                      std::move(specs));

  RowResult result;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < params.intervals; ++i) {
    simulator.AdvanceTo(simulator.now_s() + sim.interval_s);
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.fp = RunFingerprint::Of(simulator);
  if (row.obs) {
    ExportOptions options;
    options.include_profiling = false;
    result.export_fp = ExportPrometheusString(simulator.registry(), options);
    result.registry_size = simulator.registry().size();
    result.flight_events = simulator.flight_recorder().total_recorded();
  }
  return result;
}

// Best-of-N timing, with the repeats interleaved round-robin across the rows
// (off@1t, on@1t, off@8t, on@8t, off@1t, ...) so slow host-level drift — CPU
// warmup, frequency scaling — hits every row equally instead of only the
// later ones. The 3% gate is tight and wall clock on a shared host is noisy;
// the simulation is not — repeats must reproduce the run fingerprint (and the
// export fingerprint) bitwise.
std::vector<RowResult> RunRows(const BenchParams& params,
                               const std::vector<RowSpec>& rows, int repeats) {
  std::vector<RowResult> best;
  for (const RowSpec& row : rows) {
    best.push_back(RunRowOnce(params, row));
  }
  for (int r = 1; r < repeats; ++r) {
    for (size_t i = 0; i < rows.size(); ++i) {
      RowResult again = RunRowOnce(params, rows[i]);
      std::string why;
      OPTIMUS_CHECK(again.fp.Matches(best[i].fp, &why))
          << rows[i].label << " not deterministic across repeats: " << why;
      OPTIMUS_CHECK(best[i].export_fp == again.export_fp)
          << rows[i].label
          << " export fingerprint not deterministic across repeats";
      if (again.wall_s < best[i].wall_s) {
        best[i].wall_s = again.wall_s;
      }
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // --smoke: a seconds-scale subset for tools/check.sh and CI.
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_obs.json");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
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
    params.jobs = 60;
    params.nodes = 200;
    params.intervals = 8;
  }

  const std::vector<RowSpec> rows = {
      {"obs off @ 1t", 1, false},
      {"obs on  @ 1t", 1, true},
      {"obs off @ 8t", 8, false},
      {"obs on  @ 8t", 8, true},
  };

  const std::vector<RowResult> results = RunRows(params, rows, smoke ? 2 : 7);

  TablePrinter table({"configuration", "wall (s)", "overhead %", "metrics",
                      "flight events"});
  std::vector<JsonObject> json_rows;
  bool identical = true;
  std::string divergence;
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowSpec& row = rows[i];
    const RowResult& r = results[i];
    if (i > 0) {
      std::string why;
      if (!r.fp.Matches(results.front().fp, &why)) {
        identical = false;
        divergence = row.label + ": " + why;
      }
    }
    // Overhead relative to the matching off-row (the previous row).
    double overhead_pct = 0.0;
    if (row.obs && i > 0) {
      const double off = results[i - 1].wall_s;
      overhead_pct = off > 0.0 ? 100.0 * (r.wall_s - off) / off : 0.0;
    }
    table.AddRow({row.label, TablePrinter::FormatDouble(r.wall_s, 3),
                  row.obs ? TablePrinter::FormatDouble(overhead_pct, 2) : "-",
                  std::to_string(r.registry_size),
                  std::to_string(r.flight_events)});
    JsonObject jr;
    jr.Set("label", row.label);
    jr.Set("threads", row.threads);
    jr.Set("obs", row.obs);
    jr.Set("wall_s", r.wall_s);
    jr.Set("overhead_pct", overhead_pct);
    jr.Set("registry_size", static_cast<int64_t>(r.registry_size));
    jr.Set("flight_events", static_cast<int64_t>(r.flight_events));
    json_rows.push_back(jr);
  }
  table.Print(std::cout);

  // Gate 1: no simulation divergence anywhere.
  if (identical) {
    std::cout << "\nall " << results.size()
              << " rows bitwise identical (wall_* excluded)\n";
  } else {
    std::cerr << "\nMETRICS DIVERGED: " << divergence << "\n";
  }

  // Gate 2: on-rows within 3% of the matching off-rows.
  const double overhead_1t =
      results[0].wall_s > 0.0
          ? (results[1].wall_s - results[0].wall_s) / results[0].wall_s
          : 0.0;
  const double overhead_8t =
      results[2].wall_s > 0.0
          ? (results[3].wall_s - results[2].wall_s) / results[2].wall_s
          : 0.0;
  // At --smoke scale a row runs in milliseconds and the ratio is timer
  // noise, so the overhead gate only binds at full scale; smoke still gates
  // determinism.
  const bool overhead_ok =
      smoke || (overhead_1t <= 0.03 && overhead_8t <= 0.03);
  std::cout << "overhead: " << TablePrinter::FormatDouble(100.0 * overhead_1t, 2)
            << "% @ 1t, " << TablePrinter::FormatDouble(100.0 * overhead_8t, 2)
            << "% @ 8t (gate <= 3%" << (smoke ? ", not enforced in smoke" : "")
            << ")\n";
  if (!overhead_ok) {
    std::cerr << "OBSERVABILITY OVERHEAD EXCEEDS 3%\n";
  }

  // Gate 3 (folded into `identical`): the on-rows' deterministic exports
  // must match across thread counts.
  if (results[1].export_fp != results[3].export_fp) {
    identical = false;
    std::cerr << "EXPORTS DIVERGED between 1t and 8t\n";
  } else {
    std::cout << "deterministic export identical at 1t and 8t ("
              << results[1].registry_size << " metrics)\n";
  }

  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("jobs", params.jobs);
  section.Set("nodes", params.nodes);
  section.Set("intervals", params.intervals);
  section.Set("overhead_1t", overhead_1t);
  section.Set("overhead_8t", overhead_8t);
  section.Set("overhead_ok", overhead_ok);
  section.Set("metrics_identical", identical);
  section.Set("rows", json_rows);
  if (WriteBenchJsonSection(json_path, "observability", section)) {
    std::cout << "wrote section observability to " << json_path << "\n";
  }

  return identical && overhead_ok ? 0 : 3;
}
