// One definition of "the same run": everything a simulation computes, for
// bitwise comparison across configurations that must not move the outcome
// (thread count, hash-only trace storage, observability on/off) and across
// repeats of one configuration.
//
// Compared: every RunMetrics field except the wall_* host measurements
// (doubles by bit pattern, `jcts` and `timeline` element by element), the
// trace's running digest, record count and per-type counts, the network
// solve's counters, and the event list when both runs stored one (a
// hash-only trace stores none).

#ifndef SRC_SIM_RUN_FINGERPRINT_H_
#define SRC_SIM_RUN_FINGERPRINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace optimus {

class Simulator;

struct RunFingerprint {
  // The run's metrics; wall_* ride along but are never compared.
  RunMetrics metrics;
  uint64_t trace_digest = 0;
  int64_t trace_records = 0;
  std::map<SimEventType, int64_t> trace_counts;
  // Network-solve counters; 0 under the flat model.
  int64_t net_solves = 0;
  int64_t net_flows = 0;
  int64_t net_contended_flows = 0;
  // The stored event list; empty under a hash-only trace.
  std::vector<SimEvent> events;

  // Metrics alone (trace and network fields stay zero), for callers that
  // only kept the RunMetrics of a run (a sweep cell's repeats).
  static RunFingerprint Of(const RunMetrics& metrics);
  // Everything `sim` has computed so far: its metrics, trace and network.
  static RunFingerprint Of(const Simulator& sim);

  // False on any difference, with `why` naming the first differing field
  // ("jcts[3]", "timeline[7].running_tasks", "trace_counts[server_crash]",
  // "events[12].detail", ...).
  bool Matches(const RunFingerprint& other, std::string* why) const;
};

}  // namespace optimus

#endif  // SRC_SIM_RUN_FINGERPRINT_H_
