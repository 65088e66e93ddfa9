// Scenario sweep engine: fans a grid of (scenario, policy, repeat) cells out
// over the deterministic ThreadPool and aggregates one comparison row per
// (scenario, policy) cell.
//
// This is the §6 evaluation loop as a library: Figures 9-13 are each "run the
// same workload under every scheduler, repeat a few times, compare means".
// It is the repository's one repeat runner: optimus_sim, optimus_sweep, the
// paper benches and the examples all run their experiments through it.
// Every unit of work owns its state (cluster, jobs, simulator, RNG streams)
// and writes into an index-owned slot; aggregation then walks the slots in
// grid order, so the merged report — including its serialized bytes — is
// bitwise identical for any thread count.

#ifndef SRC_WORKLOAD_SWEEP_H_
#define SRC_WORKLOAD_SWEEP_H_

#include <string>
#include <vector>

#include "src/sim/metrics.h"
#include "src/workload/scenario.h"

namespace optimus {

struct SweepOptions {
  // Worker threads for the grid (0 = OPTIMUS_THREADS env var, then 1). Units
  // never nest parallelism: each cell's simulator runs serially.
  int threads = 0;
  // Capture repeat 0's optimus-run-report-v1 JSON per cell (adds the obs
  // registry walk; off when only the comparison table is wanted).
  bool capture_run_reports = true;
};

// What one cell of repeated runs reports (§6.1 runs every experiment a few
// times and reports averages).
struct RepeatAggregate {
  double avg_jct_mean = 0.0;
  double avg_jct_stddev = 0.0;
  double makespan_mean = 0.0;
  double makespan_stddev = 0.0;
  double scaling_overhead_mean = 0.0;
  // Completed jobs over all jobs, summed across the repeats.
  double completed_fraction = 1.0;
  // Fault-injection aggregates (per-run means; 0 without faults) and the
  // total invariant-audit violations across all repeats (must stay 0).
  double task_failures_mean = 0.0;
  double job_evictions_mean = 0.0;
  int64_t audit_violations_total = 0;
};

// One aggregated (scenario, policy) cell.
struct SweepCellResult : RepeatAggregate {
  std::string scenario;
  std::string policy;
  std::string display_name;
  int repeats = 0;
  int jobs = 0;
  // Ratios against the scenario's first policy (its baseline row = 1.0).
  double jct_vs_baseline = 1.0;
  double makespan_vs_baseline = 1.0;
  // optimus-run-report-v1 JSON of repeat 0 (profiling metrics excluded, so
  // the bytes are deterministic); empty when capture_run_reports is false.
  std::string run_report;
  // Each repeat's metrics, in repeat order (no timeline: the sweep does not
  // record one).
  std::vector<RunMetrics> runs;
};

struct SweepResult {
  std::vector<SweepCellResult> cells;  // grid order: scenario-major
  int64_t audit_violations_total = 0;
  double completed_fraction_min = 1.0;
};

// Runs every scenario's policy grid. Scenarios must be valid (load them via
// LoadScenarioFile); fatal otherwise.
SweepResult RunSweep(const std::vector<ScenarioSpec>& scenarios,
                     const SweepOptions& options = {});

// The merged comparison report ("optimus-sweep-report-v1") as deterministic
// JSON bytes: scenario list, one row per cell (without the embedded run
// reports), and the per-scenario baseline ratios.
std::string MergedSweepJson(const std::vector<ScenarioSpec>& scenarios,
                            const SweepResult& result);

}  // namespace optimus

#endif  // SRC_WORKLOAD_SWEEP_H_
