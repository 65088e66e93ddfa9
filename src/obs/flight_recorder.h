// Flight recorder: a fixed-capacity ring buffer of recent structured events.
//
// When the invariant auditor flags a violation — or a faulted run dies — the
// question is always "what just happened?": which allocations moved, who got
// evicted, which servers flapped, what the auditor saw. The flight recorder
// keeps the last `depth` structured events (allocation decisions, evictions,
// checkpoints, fault transitions, audit results) at O(1) cost per event and
// dumps them on demand for post-mortem debugging. Kinds and their spelling
// are the simulator's one lifecycle vocabulary (src/obs/event_types.h).
//
// Determinism: events carry simulated time and simulated state only, and all
// record sites sit in the simulator's serial phases, so the full event
// sequence (including sequence numbers) is bitwise identical for any
// --threads value, with or without a fault plan.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/event_types.h"

namespace optimus {

struct FlightEvent {
  uint64_t seq = 0;      // monotone record index since construction
  double time_s = 0.0;   // simulated time
  SimEventType kind = SimEventType::kScheduled;  // an in-flight kind
  int job_id = 0;        // -1 for cluster-scoped events
  int num_ps = 0;        // allocation after the event
  int num_workers = 0;
  double value = 0.0;    // kind-specific scalar (epochs, server id, factor,
                         // violation count)
  std::string detail;
};

class FlightRecorder {
 public:
  // depth <= 0 constructs a disabled recorder: Record() is a no-op.
  explicit FlightRecorder(int depth);

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }
  // Events currently held (<= capacity).
  size_t size() const;
  // Total events ever recorded (size() + overwritten).
  uint64_t total_recorded() const { return next_seq_; }

  void Record(double time_s, SimEventType kind, int job_id, int num_ps = 0,
              int num_workers = 0, double value = 0.0, std::string detail = "");

  // Retained events, oldest first.
  std::vector<FlightEvent> Events() const;

  // Human-readable dump (one event per line), oldest first; used for the
  // on-violation post-mortem.
  void Dump(std::ostream& os) const;

  // JSON array of events, oldest first (deterministic field order). Numbers
  // are locale-independent (see src/obs/text_format.h).
  void WriteJson(std::ostream& os, int indent = 0) const;
  // The same array appended to `out`, for exporters that build one string.
  // Each event is encoded at the first export that sees it and its text kept
  // per ring slot, so an export re-encodes only the events recorded since the
  // previous one. That cache is written by const exports: one recorder must
  // not be exported from two threads at once (every export site is serial).
  void AppendJson(std::string* out, int indent = 0) const;

 private:
  // The JSON text of the event in one ring slot, without indent; `seq` is
  // the event it encodes (kNoEvent until the first export).
  struct EncodedEvent {
    static constexpr uint64_t kNoEvent = ~uint64_t{0};
    uint64_t seq = kNoEvent;
    std::string json;
  };

  size_t capacity_;
  uint64_t next_seq_ = 0;
  std::vector<FlightEvent> ring_;  // slot = seq % capacity
  mutable std::vector<EncodedEvent> encoded_;  // parallel to ring_
};

}  // namespace optimus

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
