// Determinism-sweep harness shared by bench_scale, bench_net, bench_policies
// and bench_events: one fingerprint of everything a run computes, one timed
// run, and one engines x threads sweep that checks every cell
// bitwise against the first cell of its engine.

#ifndef BENCH_DETERMINISM_H_
#define BENCH_DETERMINISM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/network_model.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

namespace optimus {

// 16 lowercase hex digits, the trace-digest spelling every BENCH file uses.
std::string DigestHex(uint64_t digest);

// Everything a run computes, for bitwise comparison across configurations:
// JCT vectors exactly, the trace via its running digest + record count, and
// the network solve's counters (all 0 under the flat model), so a fabric
// solve that drifted would show up even if the JCTs happened to agree.
struct RunFingerprint {
  std::vector<double> jcts;
  int completed = 0;
  int64_t events_processed = 0;
  int total_scalings = 0;
  int job_evictions = 0;
  int task_failures = 0;
  double rolled_back_steps = 0.0;
  int64_t audit_violations = 0;
  uint64_t trace_digest = 0;
  int64_t trace_records = 0;
  int64_t net_solves = 0;
  int64_t net_flows = 0;
  int64_t net_contended_flows = 0;

  // False (with `why` naming the first differing field) on any difference.
  bool Matches(const RunFingerprint& other, std::string* why) const;
};

struct CellRun {
  RunFingerprint fp;
  RunMetrics metrics;
  NetworkStats net;  // zero under the flat model
  double wall_s = 0.0;
  double sim_s = 0.0;
};

// Runs one simulation to completion, timing Run() alone.
CellRun RunSim(const SimulatorConfig& config, std::vector<Server> servers,
               std::vector<JobSpec> specs);

struct SweepGrid {
  std::vector<int> threads;
  // Table and JSON rows carry the network-solve counters.
  bool net_counters = false;
};

// Runs scenario.MakeSimConfig(policy) over engines {interval, events} x
// grid.threads. The two engines legitimately differ from each
// other (different RNG cadences); the bitwise contract is per engine, so every
// cell is checked against its engine's first cell. Prints one table and
// appends one JSON row per cell to `rows`: `row_prefix`'s keys, then engine,
// threads, completed_jobs, trace_digest, trace_records, the net
// counters when asked for, match, and the SetPerfColumns columns. Returns
// false, with `why` naming the diverged cell, on any divergence.
bool RunDeterminismSweep(const ScenarioSpec& scenario, const std::string& policy,
                         const SweepGrid& grid, const JsonObject& row_prefix,
                         std::vector<JsonObject>* rows, std::string* why);

}  // namespace optimus

#endif  // BENCH_DETERMINISM_H_
