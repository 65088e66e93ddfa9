// Shared helpers for the per-figure/per-table bench harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation: it prints an experiment header, the rows/series the paper
// reports, and (where the paper gives numbers) the paper's values alongside
// the measured ones for EXPERIMENTS.md. The §6 experiments are scenarios run
// through RunSweep (src/workload/sweep.h), the one repeat runner: each bench
// starts from TestbedScenario() and sets the fields its figure varies.

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
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"
#include "src/workload/sweep.h"

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

// scenarios/fig11_testbed.json's setup, built in code: 9 Table-1 jobs with
// uniform arrivals over [0, 12000] s at 80 steps per epoch on the 13-server
// testbed, 12% straggler injection, seed 42, 5 repeats. Its policies are the
// canonical trio: "optimus", "drf" and "tetris".
ScenarioSpec TestbedScenario();

// Runs `scenario`'s policies and prints absolute + normalized JCT / makespan,
// one row per policy display name, normalized against the first policy.
// Returns the cells in policy order.
std::vector<SweepCellResult> RunPolicyComparison(const ScenarioSpec& scenario,
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
