// Structured event trace of a simulation run.
//
// Records the scheduler-visible lifecycle of every job (arrival, scheduling,
// elastic rescaling, pauses, straggler replacements, learning-rate drops,
// completion) so that runs can be inspected, diffed, and exported to CSV —
// the simulator-side analogue of a production scheduler's audit log.
//
// Recording is a hot path (the simulator emits several events per job per
// interval at cluster scale), so events are buffered as compact raw records:
// typed details store a numeric argument instead of building a "key=value"
// string per event, and free-form detail strings are pooled. The
// familiar SimEvent view (with its detail string) is materialized lazily, on
// first read, in one pass.

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/obs/event_types.h"

namespace optimus {

// Detail argument of a trace record: nothing, a free-form string, or a typed
// number stored raw and materialized on first read ("epochs=<n>",
// "server=<n>", "factor=<std::to_string(f)>"). A string converts implicitly;
// an empty string is no detail.
struct EventDetail {
  EventDetail() = default;
  EventDetail(std::string text)
      : EventDetail(EventDetailKind::kString, 0.0, std::move(text)) {}
  EventDetail(const char* text) : EventDetail(std::string(text)) {}
  // `value` is the payload of the numeric kinds (kEpochs / kServer take its
  // integer part); `text` the payload of kString.
  EventDetail(EventDetailKind kind, double value, std::string text = "")
      : kind(kind == EventDetailKind::kString && text.empty() ? EventDetailKind::kNone
                                                              : kind),
        value(value),
        text(std::move(text)) {}

  EventDetailKind kind = EventDetailKind::kNone;
  double value = 0.0;
  std::string text;
};

struct SimEvent {
  double time_s = 0.0;
  SimEventType type = SimEventType::kArrival;
  int job_id = 0;
  // Allocation after the event (0/0 where not meaningful).
  int num_ps = 0;
  int num_workers = 0;
  std::string detail;
};

class EventTrace {
 public:
  // Pre-sizes the raw event buffer (one reservation per run beats repeated
  // regrowth at cluster scale). No-op in hash-only mode.
  void Reserve(size_t n);

  // Hash-only mode: records update the running digest (and the record count)
  // but are not stored, so a million-job run's trace costs O(1) memory.
  // events()/ForJob()/WriteCsv() then see only the records stored while
  // storage was on. The digest itself is identical in both modes.
  void set_hash_only(bool hash_only) { hash_only_ = hash_only; }
  bool hash_only() const { return hash_only_; }

  // Running FNV-1a digest over the canonical fields of every record so far
  // (time bits, type, job, ps, workers, detail kind and payload — for string
  // details, the string bytes). Maintained in both modes: two runs produced
  // identical traces iff their digests and sizes match, which lets
  // determinism sweeps compare traces without holding them.
  uint64_t digest() const { return digest_; }

  void Record(double time_s, SimEventType type, int job_id, int num_ps = 0,
              int num_workers = 0, EventDetail detail = {});

  const std::vector<SimEvent>& events() const;
  // Records ever recorded (counted in hash-only mode too).
  size_t size() const { return recorded_; }

  // Events of one job, in time order.
  std::vector<SimEvent> ForJob(int job_id) const;

  // Number of events per type (types never recorded are absent). Counted as
  // records arrive, so hash-only mode reports the same counts.
  std::map<SimEventType, int64_t> CountByType() const;

  // CSV export: time_s,event,job,ps,workers,detail.
  void WriteCsv(std::ostream& os) const;

 private:
  struct RawRecord {
    double time_s = 0.0;
    SimEventType type = SimEventType::kArrival;
    int job_id = 0;
    int num_ps = 0;
    int num_workers = 0;
    EventDetailKind detail_kind = EventDetailKind::kNone;
    // kString: index into strings_. kEpochs/kServer: the integer argument.
    int64_t int_arg = 0;
    double num_arg = 0.0;  // kFactor
  };

  // Folds the record's canonical fields into the digest and counts it. For
  // kString details the bytes of `text` are folded (never the pool index,
  // which is a storage artifact).
  void Seal(const RawRecord& r, const std::string& text);
  // Converts raw records [materialized_, records_.size()) into SimEvents.
  void Materialize() const;

  std::vector<RawRecord> records_;
  std::vector<std::string> strings_;  // pooled free-form detail strings
  mutable std::vector<SimEvent> events_;
  mutable size_t materialized_ = 0;
  bool hash_only_ = false;
  uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis
  size_t recorded_ = 0;
  std::array<int64_t, kNumSimEventTypes> type_counts_ = {};
  // Time-order check state (records_ is empty in hash-only mode).
  double last_time_s_ = 0.0;
  SimEventType last_type_ = SimEventType::kArrival;
  int last_job_id_ = 0;
};

}  // namespace optimus

#endif  // SRC_SIM_TRACE_H_
