// Shared helpers for the per-figure/per-table bench harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation: it prints an experiment header, the rows/series the paper
// reports, and (where the paper gives numbers) the paper's values alongside
// the measured ones for EXPERIMENTS.md.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <iostream>
#include <string>
#include <vector>

// Machine-readable bench output (BENCH_sched.json and friends) goes through
// the shared deterministic JSON writer; JsonObject and WriteBenchJsonSection
// live there and are re-exported here for the bench binaries.
#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/net/network_model.h"
#include "src/sched/speed_estimate.h"
#include "src/sim/experiment.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"

namespace optimus {

// Prints the standard bench banner.
void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& paper_expectation);

// Peak resident set size of this process (VmHWM from /proc/self/status) in
// MiB; 0.0 where the proc filesystem is unavailable. VmHWM is a high-water
// mark: per-cell numbers need one process per cell (bench_scale re-execs
// itself for exactly this reason).
double PeakRssMib();

// Stamps the shared performance columns on a bench JSON row: wall_s, sim_s
// and sim_s_per_wall_s (0 when wall_s is 0). Every harness that reports run
// performance uses this so BENCH_*.json files agree on names. Peak RSS is not
// among them: an in-process row would report the high-water mark of every
// run before it, so only re-exec'd per-cell rows carry PeakRssMib().
void SetPerfColumns(JsonObject* row, double wall_s, double sim_s);

// 16 lowercase hex digits, the trace-digest spelling every BENCH file uses.
std::string DigestHex(uint64_t digest);

// One timed simulation: its fingerprint (src/sim/run_fingerprint.h), the
// network solve's stats (zero under the flat model), and the wall time of
// Run() alone.
struct CellRun {
  RunFingerprint fp;
  NetworkStats net;
  double wall_s = 0.0;
  double sim_s = 0.0;
};

// Runs one simulation to completion, timing Run() alone.
CellRun RunSim(const SimulatorConfig& config, std::vector<Server> servers,
               std::vector<JobSpec> specs);

// Runs the canonical three-scheduler comparison (Optimus, DRF, Tetris) under
// the given base config and prints absolute + normalized JCT / makespan.
// Returns the three results in that order: the policies "optimus", "drf" and
// "tetris" (src/sched/scheduler_registry.h).
std::vector<ExperimentResult> RunSchedulerComparison(const ExperimentConfig& base,
                                                     const std::string& caption);

// Same comparison over an explicit list of registry policy names (e.g. adding
// "fifo" or "srtf" to the canonical trio). Rows are labeled with each
// policy's display name; normalization is against the first entry.
std::vector<ExperimentResult> RunPolicyComparison(
    const ExperimentConfig& base, const std::vector<std::string>& policies,
    const std::string& caption);

// A full-fidelity oracle estimate for zoo profile `zoo_index`: ground-truth
// synchronous training speed in epochs/s from the Eqn-2 step-time model, with
// the §5.3 PS load shape recomputed for the probed parameter-server count
// (what an expensive-per-point probe costs). Every call for one profile
// returns an equal estimate, so jobs built from it share one memoized
// surface.
SpeedEstimate ZooOracleSpeed(size_t zoo_index);

}  // namespace optimus

#endif  // BENCH_BENCH_UTIL_H_
