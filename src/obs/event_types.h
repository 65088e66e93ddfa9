// The simulator's lifecycle-event vocabulary: one enumerator and one row per
// kind of edge (arrival, scheduling, faults, completion, audits).
//
// Every edge is emitted once (Simulator::Emit) and each consumer reads the
// row to decide what it keeps: the EventTrace records the in-trace kinds, the
// FlightRecorder ring the in-flight kinds, and both spell a kind by the same
// name. Enumerator values are part of the trace digest, so new kinds are only
// ever appended.

#ifndef SRC_OBS_EVENT_TYPES_H_
#define SRC_OBS_EVENT_TYPES_H_

#include <cstdint>

namespace optimus {

enum class SimEventType {
  kArrival,
  kScheduled,       // first time a job receives resources
  kScaled,          // (p, w) changed for a running job
  kPaused,          // active job received no placeable resources
  kResumed,         // previously paused job running again
  kStragglerReplaced,
  kLearningRateDrop,
  kCompleted,
  // Fault-injection events (src/sim/fault_injector.h). Cluster-scoped events
  // (server crash/recovery, slowdown changes) carry kClusterEventJobId.
  kServerCrash,
  kServerRecovered,
  kTaskFailed,      // container death; job restored from checkpoint in place
  kEvicted,         // job lost its tasks to a server crash; rolled back
  kSlowdown,        // cluster-wide speed factor changed (detail: factor=F)
  kKilled,          // job cancelled by an online kill request (service mode)
  // Flight-only kinds (not part of the trace, so its digest is unaffected).
  kCheckpoint,      // durable checkpoint taken (periodic or on scaling)
  kAuditCheck,      // one auditor pass (value = violations so far)
  kAuditViolation,  // one reported violation (detail = invariant: ...)
};

inline constexpr int kNumSimEventTypes = 17;

// job_id used for events that concern the cluster rather than one job.
inline constexpr int kClusterEventJobId = -1;

// How an event's argument becomes the trace record's detail. The numeric
// values are folded into the trace digest and must not change.
enum class EventDetailKind : uint8_t {
  kNone,
  kString,  // free-form text (model name, eviction reason, ...)
  kEpochs,  // "epochs=<n>"
  kServer,  // "server=<n>"
  kFactor,  // "factor=<std::to_string(f)>"
};

struct SimEventTypeInfo {
  const char* name;
  bool in_trace;
  bool in_flight;
  EventDetailKind detail;
};

inline constexpr SimEventTypeInfo kSimEventTypeInfo[kNumSimEventTypes] = {
    {"arrival", true, false, EventDetailKind::kString},
    {"scheduled", true, true, EventDetailKind::kNone},
    {"scaled", true, true, EventDetailKind::kNone},
    {"paused", true, true, EventDetailKind::kNone},
    {"resumed", true, true, EventDetailKind::kNone},
    {"straggler_replaced", true, false, EventDetailKind::kNone},
    {"lr_drop", true, false, EventDetailKind::kNone},
    {"completed", true, true, EventDetailKind::kEpochs},
    {"server_crash", true, true, EventDetailKind::kServer},
    {"server_recovered", true, true, EventDetailKind::kServer},
    {"task_failed", true, true, EventDetailKind::kNone},
    {"evicted", true, true, EventDetailKind::kString},
    {"slowdown", true, true, EventDetailKind::kFactor},
    {"killed", true, true, EventDetailKind::kNone},
    {"checkpoint", false, true, EventDetailKind::kString},
    {"audit_check", false, true, EventDetailKind::kString},
    {"audit_violation", false, true, EventDetailKind::kString},
};

inline const SimEventTypeInfo& EventTypeInfo(SimEventType type) {
  return kSimEventTypeInfo[static_cast<int>(type)];
}

inline const char* SimEventTypeName(SimEventType type) {
  return EventTypeInfo(type).name;
}

}  // namespace optimus

#endif  // SRC_OBS_EVENT_TYPES_H_
