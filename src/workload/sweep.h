// Scenario sweep engine: fans a grid of (scenario, policy, repeat) cells out
// over the deterministic ThreadPool and aggregates one comparison row per
// (scenario, policy) cell.
//
// This is the §6 evaluation loop as a library: Figures 9-13 are each "run the
// same workload under every scheduler, repeat a few times, compare means".
// Every unit of work owns its state (cluster, jobs, simulator, RNG streams)
// and writes into an index-owned slot; aggregation then walks the slots in
// grid order, so the merged report — including its serialized bytes — is
// bitwise identical for any thread count.

#ifndef SRC_WORKLOAD_SWEEP_H_
#define SRC_WORKLOAD_SWEEP_H_

#include <string>
#include <vector>

#include "src/sim/experiment.h"
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
