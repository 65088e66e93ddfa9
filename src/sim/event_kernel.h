// Discrete-event kernel for the cluster simulator.
//
// The interval engine (simulator.cc) polls every job once per scheduling
// interval whether or not anything about it changed; at cluster scale the
// poll — not the decisions — dominates wall time. The event kernel inverts
// control: simulated activity is a priority queue of typed events (arrivals,
// fault-plan edges, rounds), each job is advanced lazily only at its *own*
// epoch boundaries, and those are computed analytically from the
// ground-truth speed instead of being discovered by stepping. Scheduling
// rounds stay periodic (Optimus's Algorithm-1 cadence, one kRound event per
// interval), so policy decisions keep their interval-engine semantics while
// idle jobs cost zero work between rounds.
//
// Epoch boundaries stay out of the queue: a running job keeps its next one on
// its runtime, and between two barriers (the queued round, the next
// fault-plan edge, the stepping horizon) every job walks its own boundaries,
// fanned out over the thread pool, touching only its own state.
//
// Determinism: the queue is ordered by the total key (time, kind, job_id) —
// events that compare equal are equal values — so pop order is independent of
// push order and of the heap's internals (src/common/min_heap.h). After each
// walk the caller merges the walks' shared effects (completions, lr-drop
// records), each keyed (time, kEpoch, job_id), with the queue's events in
// that key order, serially, so every shared-state effect lands in key order
// and every simulation output stays bitwise identical for any --threads.
//
// Clock markers: a job's pending boundary that a reschedule, eviction, kill
// or slowdown supersedes leaves a kEpoch entry at its time in the queue. It
// does nothing when it pops but move now_s(), so the clock a partial advance
// stops at is the time of the last thing processed. Markers are the only
// kEpoch entries in the queue.

#ifndef SRC_SIM_EVENT_KERNEL_H_
#define SRC_SIM_EVENT_KERNEL_H_

#include <array>
#include <cstdint>

#include "src/common/min_heap.h"

namespace optimus {

// Processing priority at equal timestamps is the enum order: arrivals first
// (a job arriving exactly at a round boundary is schedulable in that round,
// matching the interval engine's ActivateArrivals-before-scheduling order),
// then epoch boundaries and clock markers (training that finishes exactly at
// a barrier belongs to the span before it), then scripted fault-plan edges,
// then the scheduling round that reacts to all of the above.
enum class SimEventKind : int {
  kArrival = 0,
  kEpoch = 1,
  kFaultPlan = 2,
  kRound = 3,
};

inline constexpr int kNumSimEventKinds = 4;

const char* SimEventKindName(SimEventKind kind);

struct SimKernelEvent {
  double time_s = 0.0;
  SimEventKind kind = SimEventKind::kRound;
  // Tie-break id; the owning job for kEpoch, -1 for cluster-level events
  // (kArrival, kFaultPlan, kRound).
  int64_t job_id = -1;
};

// Strict total order on (time, kind, job_id). Two pushed events compare
// equal only when they are equal values: a kEpoch clock marker holds only its
// time and job id, kFaultPlan and kRound are pushed at most once per
// timestamp, and kArrival is cluster-level (one live arrival, at the pending
// head's time). A submission that supersedes the queued arrival can leave a
// second kArrival at a timestamp that already holds one; the two are equal,
// and the one that pops second is stale.
struct SimKernelEventBefore {
  bool operator()(const SimKernelEvent& a, const SimKernelEvent& b) const {
    if (a.time_s != b.time_s) {
      return a.time_s < b.time_s;
    }
    if (a.kind != b.kind) {
      return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    }
    return a.job_id < b.job_id;
  }
};

// The simulator's event queue. Pop order is fully determined by the
// (time, kind, job_id) key, so draining it with top()/pop() visits events in
// the same order however they were pushed.
using EventQueue = MinHeap<SimKernelEvent, SimKernelEventBefore>;

// Per-kind processed-event tally, merged into metrics/observability by the
// simulator's event loop. kEpoch counts walked boundaries; clock markers are
// not counted.
struct EventKindCounts {
  std::array<int64_t, kNumSimEventKinds> counts = {};

  void Note(SimEventKind kind, int64_t n = 1) { counts[static_cast<size_t>(kind)] += n; }
  int64_t total() const {
    int64_t sum = 0;
    for (int64_t c : counts) {
      sum += c;
    }
    return sum;
  }
};

}  // namespace optimus

#endif  // SRC_SIM_EVENT_KERNEL_H_
