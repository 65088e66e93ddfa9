// Interval engine: simulated-seconds-per-wall-second for the full interval
// loop (faults -> schedule -> advance -> audit) at 1,000 jobs on 16,000
// nodes, at 1, 2, 4 and 8 threads.
//
// Every row replays the identical workload from the identical seed, so the
// engine's determinism contract applies: all rows must produce bitwise
// identical RunMetrics (wall-time profiling fields excluded). The bench fails
// (exit 3) if any row diverges — speed that changes the answer is a bug, not
// a result.
//
// Reported per row: wall time, simulated seconds per wall second, and the
// per-phase breakdown (faults / schedule / advance / audit) that
// RunMetrics::wall_* accumulates inside Simulator::StepInterval.

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace {

using namespace optimus;

struct BenchParams {
  int jobs = 1000;
  int nodes = 16000;
  int intervals = 100;
  uint64_t seed = 7;
};

struct RowSpec {
  std::string label;
  int threads = 1;
};

struct RowResult {
  RunMetrics metrics;
  double wall_s = 0.0;
  double sim_s_per_wall_s = 0.0;
};

RowResult RunRowOnce(const BenchParams& params, const RowSpec& row) {
  SimulatorConfig sim;
  sim.seed = params.seed;
  sim.threads = row.threads;
  sim.audit = true;
  // A light fault load so the faults phase and the auditor's delta updates
  // (evictions, recoveries) are genuinely exercised, not measured at zero.
  std::string error;
  OPTIMUS_CHECK(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;slow@2400:factor=0.8,duration=1800",
      &sim.fault.plan, &error))
      << error;
  sim.fault.task_failure_prob = 0.005;
  sim.fault.checkpoint_period_s = 3600.0;
  // Dense loss-sample feed (one sample every ~6 simulated seconds) fitted at
  // full fidelity (no 512-point downsampling cap): the regime the Gram-cached
  // refits are built for, accumulating the Gram once per refit.
  sim.conv_samples_per_interval = 300;
  sim.conv_fit_points = 16384;

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
    if (!simulator.StepInterval()) {
      break;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.metrics = simulator.metrics();
  result.sim_s_per_wall_s =
      result.wall_s > 0.0 ? simulator.now_s() / result.wall_s : 0.0;
  return result;
}

bool MetricsIdentical(const RunMetrics& a, const RunMetrics& b, std::string* why);

// Best-of-two timing per row: wall clock on a shared host is noisy, the
// simulation is not — the repeat must reproduce the metrics bitwise, and the
// faster repeat's timings are the row's measurement.
RowResult RunRow(const BenchParams& params, const RowSpec& row) {
  RowResult best = RunRowOnce(params, row);
  RowResult again = RunRowOnce(params, row);
  std::string why;
  OPTIMUS_CHECK(MetricsIdentical(best.metrics, again.metrics, &why))
      << row.label << " not deterministic across repeats: " << why;
  if (again.wall_s < best.wall_s) {
    best = again;
  }
  return best;
}

// Bitwise equality of everything the simulation computes; the wall_* phase
// timers are host measurements and intentionally excluded.
bool MetricsIdentical(const RunMetrics& a, const RunMetrics& b,
                      std::string* why) {
  auto fail = [&](const std::string& what) {
    *why = what;
    return false;
  };
  if (a.completed_jobs != b.completed_jobs) return fail("completed_jobs");
  if (a.jcts != b.jcts) return fail("jcts");
  if (a.scaling_overhead_fraction != b.scaling_overhead_fraction) {
    return fail("scaling_overhead_fraction");
  }
  if (a.straggler_replacements != b.straggler_replacements) {
    return fail("straggler_replacements");
  }
  if (a.total_scalings != b.total_scalings) return fail("total_scalings");
  if (a.server_crashes != b.server_crashes) return fail("server_crashes");
  if (a.server_recoveries != b.server_recoveries) return fail("server_recoveries");
  if (a.task_failures != b.task_failures) return fail("task_failures");
  if (a.job_evictions != b.job_evictions) return fail("job_evictions");
  if (a.backoff_deferrals != b.backoff_deferrals) return fail("backoff_deferrals");
  if (a.checkpoints_taken != b.checkpoints_taken) return fail("checkpoints_taken");
  if (a.rolled_back_steps != b.rolled_back_steps) return fail("rolled_back_steps");
  if (a.audit_checks != b.audit_checks) return fail("audit_checks");
  if (a.audit_violations != b.audit_violations) return fail("audit_violations");
  if (a.timeline.size() != b.timeline.size()) return fail("timeline size");
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    if (a.timeline[i].time_s != b.timeline[i].time_s ||
        a.timeline[i].running_tasks != b.timeline[i].running_tasks ||
        a.timeline[i].worker_cpu_util_pct != b.timeline[i].worker_cpu_util_pct ||
        a.timeline[i].ps_cpu_util_pct != b.timeline[i].ps_cpu_util_pct) {
      return fail("timeline point " + std::to_string(i));
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // --smoke: a seconds-scale subset for tools/check.sh and CI.
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_interval.json");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }

  PrintExperimentHeader(
      "EXT: interval engine",
      "Interval-loop throughput across thread counts",
      "Every thread count advances the same simulation bitwise identically");

  BenchParams params;
  if (smoke) {
    params.jobs = 60;
    params.nodes = 200;
    params.intervals = 8;
  }

  std::vector<RowSpec> rows;
  for (const int threads : {1, 2, 4, 8}) {
    rows.push_back({"engine @ " + std::to_string(threads) + "t", threads});
  }

  TablePrinter table({"configuration", "wall (s)", "sim s / wall s", "faults (s)",
                      "schedule (s)", "advance (s)", "audit (s)"});
  std::vector<RowResult> results;
  std::vector<JsonObject> json_rows;
  bool identical = true;
  std::string divergence;
  for (const RowSpec& row : rows) {
    const RowResult r = RunRow(params, row);
    if (!results.empty()) {
      std::string why;
      if (!MetricsIdentical(results.front().metrics, r.metrics, &why)) {
        identical = false;
        divergence = row.label + ": " + why;
      }
    }
    table.AddRow({row.label, TablePrinter::FormatDouble(r.wall_s, 3),
                  TablePrinter::FormatDouble(r.sim_s_per_wall_s, 0),
                  TablePrinter::FormatDouble(r.metrics.wall_faults_s, 3),
                  TablePrinter::FormatDouble(r.metrics.wall_schedule_s, 3),
                  TablePrinter::FormatDouble(r.metrics.wall_advance_s, 3),
                  TablePrinter::FormatDouble(r.metrics.wall_audit_s, 3)});
    JsonObject jr;
    jr.Set("label", row.label);
    jr.Set("threads", row.threads);
    jr.Set("wall_s", r.wall_s);
    jr.Set("sim_s_per_wall_s", r.sim_s_per_wall_s);
    jr.Set("wall_faults_s", r.metrics.wall_faults_s);
    jr.Set("wall_schedule_s", r.metrics.wall_schedule_s);
    jr.Set("wall_advance_s", r.metrics.wall_advance_s);
    jr.Set("wall_audit_s", r.metrics.wall_audit_s);
    jr.Set("audit_checks", r.metrics.audit_checks);
    jr.Set("audit_violations", r.metrics.audit_violations);
    json_rows.push_back(jr);
    results.push_back(r);
  }
  table.Print(std::cout);

  // Headline: thread scaling, 1 thread vs 8. A host with fewer cores than
  // threads cannot show a wall speedup here.
  const double wall_1t = results.front().wall_s;
  const double wall_8t = results.back().wall_s;
  const double speedup = wall_8t > 0.0 ? wall_1t / wall_8t : 0.0;
  std::cout << "\nengine @ 1t " << TablePrinter::FormatDouble(wall_1t, 3)
            << " s -> engine @ 8t " << TablePrinter::FormatDouble(wall_8t, 3)
            << " s: " << TablePrinter::FormatDouble(speedup, 2) << "x\n";
  if (identical) {
    std::cout << "all " << results.size()
              << " rows bitwise identical (wall_* excluded)\n";
  } else {
    std::cerr << "METRICS DIVERGED: " << divergence << "\n";
  }

  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("jobs", params.jobs);
  section.Set("nodes", params.nodes);
  section.Set("intervals", params.intervals);
  section.Set("interval_s", 600.0);
  section.Set("wall_s_1t", wall_1t);
  section.Set("wall_s_8t", wall_8t);
  section.Set("speedup_8t", speedup);
  section.Set("metrics_identical", identical);
  section.Set("rows", json_rows);
  if (WriteBenchJsonSection(json_path, "interval_engine", section)) {
    std::cout << "wrote section interval_engine to " << json_path << "\n";
  }

  return identical ? 0 : 3;
}
