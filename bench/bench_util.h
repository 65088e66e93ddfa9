// Shared helpers for the per-figure/per-table bench harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation: it prints an experiment header, the rows/series the paper
// reports, and (where the paper gives numbers) the paper's values alongside
// the measured ones for EXPERIMENTS.md. The §6 experiments are scenarios run
// through RunSweep (src/workload/sweep.h), the one repeat runner: each bench
// starts from TestbedScenario() and sets the fields its figure varies.
//
// The perf benches (bench_scale, bench_net, bench_obs, bench_events) share one
// harness: one cell setup (RunCell, SetLightFaults), one child-cell runner
// (RunChildCells, PrintCellLine), one interleaved repeat loop (RunRepeats) and
// one row schema (SetPerfRow: cell, wall_s, sim_s, sim_s_per_wall_s and
// trace_digest on every row, peak_rss_mib on child-process rows).

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
// Machine-readable bench output (BENCH_sched.json and friends) goes through
// the shared deterministic JSON writer; JsonObject and WriteBenchJsonSection
// live there and are re-exported here for the bench binaries.
#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/net/network_model.h"
#include "src/sched/speed_estimate.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/json.h"
#include "src/workload/scenario.h"
#include "src/workload/sweep.h"

namespace optimus {

// Prints "unknown flag --<key>" for each flag `flags` did not consume; true
// when there was one (the bench then exits 1).
bool UnknownFlags(const FlagParser& flags);

// Prints the standard bench banner.
void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& paper_expectation);

// Peak resident set size of this process (VmHWM from /proc/self/status) in
// MiB; 0.0 where the proc filesystem is unavailable. VmHWM is a high-water
// mark: per-cell numbers need one process per cell (RunChildCells).
double PeakRssMib();

// Stamps wall_s, sim_s and sim_s_per_wall_s (0 when wall_s is 0) on a bench
// JSON row. Peak RSS is not among them: an in-process row would report the
// high-water mark of every run before it, so only child-process rows carry
// PeakRssMib() (PrintCellLine).
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

// Runs one simulation to completion, timing Run() alone. `inspect`, when
// set, sees the finished simulator before it is destroyed.
CellRun RunSim(const SimulatorConfig& config, std::vector<Server> servers,
               std::vector<JobSpec> specs,
               const std::function<void(const Simulator&)>& inspect = {});

// ---------------------------------------------------------------------------
// The perf-bench harness.
// ---------------------------------------------------------------------------

// The light fault load: a scripted crash of server 2 at 1800 s (back at
// 9000 s) and a 0.8x slowdown at 2400 s for 1800 s, 0.5% stochastic task
// failures and hourly checkpoints, so the fault paths carry real traffic.
void SetLightFaults(SimulatorConfig* config);

// One perf cell through RunSim: `workload` drawn by GenerateWorkload from one
// stream seeded config.seed ^ 0x5eed, on `servers` uniform servers of 16 CPUs
// and 80 GB.
CellRun RunCell(const SimulatorConfig& config, const WorkloadConfig& workload,
                int servers,
                const std::function<void(const Simulator&)>& inspect = {});

// The shared row columns, set first so every row opens with them: `cell`
// (the row's label), SetPerfColumns and trace_digest. The digest is the
// trace's (RunFingerprint::trace_digest), not the ledger's output digest.
void SetPerfRow(JsonObject* row, const std::string& cell, const CellRun& run);

// Child cells: RunChildCells re-execs `self_exe --cell=<cell>` per cell; the
// child runs that one cell and reports its row with PrintCellLine, so the
// row's peak_rss_mib is the cell's own. The row travels as one line, "CELL "
// and its compact JSON: every double is written by AppendDouble17, so the
// parent reads back the child's bits.
std::string CellLine(const JsonObject& row);
// Parses a CellLine; false with `why` unless it holds a JSON object.
bool ParseCellLine(const std::string& line, JsonValue* row, std::string* why);
// A parsed flat row as the JsonObject CellLine was given, byte for byte.
JsonObject CellRow(const JsonValue& row);
// Child side: stamps peak_rss_mib on `row`, prints its CellLine, returns 0.
int PrintCellLine(JsonObject row);
// Parent side: runs `cells` in order, appends each row to `rows` and prints
// the rows' `columns` as a table. False, naming the cell and exit status,
// when a child fails or prints no CELL line.
bool RunChildCells(const std::string& self_exe,
                   const std::vector<std::string>& cells,
                   const std::vector<std::string>& columns,
                   std::vector<JsonObject>* rows, std::string* why);

// One row's repeats: its first run and every repeat's wall time, in order.
struct RepeatedRun {
  CellRun run;
  std::vector<double> wall_s;
};

// Runs `run_row(i)` for every row i < cells.size(), `repeats` rounds,
// interleaved (row 0, 1, ..., n-1, then again) so slow host drift such as
// warm-up or frequency scaling hits every row alike. Every repeat must
// reproduce its row's first RunFingerprint bit for bit: returns false, with
// `why` naming the first row and field that did not, after all rounds ran.
bool RunRepeats(const std::vector<std::string>& cells, int repeats,
                const std::function<CellRun(size_t row)>& run_row,
                std::vector<RepeatedRun>* rows, std::string* why);

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
