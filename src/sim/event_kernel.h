// Discrete-event kernel for the cluster simulator.
//
// The interval engine (simulator.cc) polls every job once per scheduling
// interval whether or not anything about it changed; at cluster scale the
// poll — not the decisions — dominates wall time. The event kernel inverts
// control: simulated activity is a priority queue of typed events, each job
// is advanced lazily only between its *own* events, and epoch completions
// are computed analytically from the ground-truth speed instead of being
// discovered by stepping. Scheduling rounds stay periodic (Optimus's
// Algorithm-1 cadence, one kRound event per interval), so policy decisions
// keep their interval-engine semantics while idle jobs cost zero work
// between rounds.
//
// Determinism: the queue is ordered by the total key (time, kind, job_id) —
// events that compare equal are equal values — so pop order is independent of
// push order and of the heap's internals (src/common/min_heap.h). The loop pops
// one event at a time and handles it serially, so every shared-state effect
// lands in key order. The simulator's one fan-out (model refits) touches only
// job-owned state, so every simulation output stays bitwise identical for any
// --threads.
//
// Lazy invalidation: rescheduling a job's pending epoch event on every
// allocation / fault / noise-redraw change would need a decrease-key
// operation. Instead each job carries a generation counter; events snapshot
// the generation at push time and a popped event whose generation no longer
// matches the job's is stale and silently discarded — the same
// stale-snapshot idiom the allocator's lazy gain heap uses.

#ifndef SRC_SIM_EVENT_KERNEL_H_
#define SRC_SIM_EVENT_KERNEL_H_

#include <array>
#include <cstdint>

#include "src/common/min_heap.h"

namespace optimus {

// Processing priority at equal timestamps is the enum order: arrivals first
// (a job arriving exactly at a round boundary is schedulable in that round,
// matching the interval engine's ActivateArrivals-before-scheduling order),
// then epoch completions (training that finishes exactly at a boundary
// belongs to the span before it), then scripted fault-plan edges, then the
// scheduling round that reacts to all of the above.
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
  // Owning job's generation at push time (kEpoch only); see header comment.
  uint64_t gen = 0;
};

// Strict total order on (time, kind, job_id). Two pushed events compare
// equal only when they are equal values: kEpoch events at one timestamp carry
// distinct job ids, kFaultPlan and kRound are pushed at most once per
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
// simulator's event loop.
struct EventKindCounts {
  std::array<int64_t, kNumSimEventKinds> counts = {};

  void Note(SimEventKind kind) { ++counts[static_cast<size_t>(kind)]; }
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
