#include "src/sim/run_fingerprint.h"

#include <bit>

#include "src/net/network_model.h"
#include "src/sim/simulator.h"

namespace optimus {

namespace {

// Doubles compare by bit pattern: -0.0 differs from 0.0, and a NaN equals
// itself.
bool Same(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
template <typename T>
bool Same(const T& a, const T& b) {
  return a == b;
}

// The name of the first differing member of one list element, or null. An
// empty name means the element itself (a JCT).
const char* FirstDifference(double a, double b) { return Same(a, b) ? nullptr : ""; }

const char* FirstDifference(const TimelinePoint& a, const TimelinePoint& b) {
  if (!Same(a.time_s, b.time_s)) return "time_s";
  if (a.running_tasks != b.running_tasks) return "running_tasks";
  if (!Same(a.worker_cpu_util_pct, b.worker_cpu_util_pct)) {
    return "worker_cpu_util_pct";
  }
  if (!Same(a.ps_cpu_util_pct, b.ps_cpu_util_pct)) return "ps_cpu_util_pct";
  return nullptr;
}

const char* FirstDifference(const SimEvent& a, const SimEvent& b) {
  if (!Same(a.time_s, b.time_s)) return "time_s";
  if (a.type != b.type) return "type";
  if (a.job_id != b.job_id) return "job_id";
  if (a.num_ps != b.num_ps) return "num_ps";
  if (a.num_workers != b.num_workers) return "num_workers";
  if (a.detail != b.detail) return "detail";
  return nullptr;
}

// Element-wise list comparison: "name.size" on a length mismatch, else
// "name[i]" or "name[i].member" for the first differing element.
template <typename T>
bool ListsDiffer(const char* name, const std::vector<T>& a, const std::vector<T>& b,
                 std::string* why) {
  if (a.size() != b.size()) {
    *why = std::string(name) + ".size";
    return true;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (const char* member = FirstDifference(a[i], b[i])) {
      *why = std::string(name) + "[" + std::to_string(i) + "]";
      if (*member != '\0') {
        *why += std::string(".") + member;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

RunFingerprint RunFingerprint::Of(const RunMetrics& metrics) {
  RunFingerprint fp;
  fp.metrics = metrics;
  return fp;
}

RunFingerprint RunFingerprint::Of(const Simulator& sim) {
  RunFingerprint fp = Of(sim.metrics());
  const EventTrace& trace = sim.trace();
  fp.trace_digest = trace.digest();
  fp.trace_records = static_cast<int64_t>(trace.size());
  fp.trace_counts = trace.CountByType();
  if (const NetworkModel* net = sim.network()) {
    fp.net_solves = net->stats().solves;
    fp.net_flows = net->stats().flows;
    fp.net_contended_flows = net->stats().contended_flows;
  }
  fp.events = trace.events();
  return fp;
}

bool RunFingerprint::Matches(const RunFingerprint& other, std::string* why) const {
  const RunMetrics& a = metrics;
  const RunMetrics& b = other.metrics;
  auto differs = [&](const char* name, auto x, auto y) {
    if (Same(x, y)) {
      return false;
    }
    *why = name;
    return true;
  };
  if (differs("total_jobs", a.total_jobs, b.total_jobs) ||
      differs("completed_jobs", a.completed_jobs, b.completed_jobs) ||
      differs("jobs_killed", a.jobs_killed, b.jobs_killed) ||
      ListsDiffer("jcts", a.jcts, b.jcts, why) ||
      differs("avg_jct_s", a.avg_jct_s, b.avg_jct_s) ||
      differs("makespan_s", a.makespan_s, b.makespan_s) ||
      differs("scaling_overhead_fraction", a.scaling_overhead_fraction,
              b.scaling_overhead_fraction) ||
      differs("straggler_replacements", a.straggler_replacements,
              b.straggler_replacements) ||
      differs("total_scalings", a.total_scalings, b.total_scalings) ||
      differs("server_crashes", a.server_crashes, b.server_crashes) ||
      differs("server_recoveries", a.server_recoveries, b.server_recoveries) ||
      differs("task_failures", a.task_failures, b.task_failures) ||
      differs("job_evictions", a.job_evictions, b.job_evictions) ||
      differs("backoff_deferrals", a.backoff_deferrals, b.backoff_deferrals) ||
      differs("checkpoints_taken", a.checkpoints_taken, b.checkpoints_taken) ||
      differs("rolled_back_steps", a.rolled_back_steps, b.rolled_back_steps) ||
      differs("audit_checks", a.audit_checks, b.audit_checks) ||
      differs("audit_violations", a.audit_violations, b.audit_violations) ||
      differs("events_processed", a.events_processed, b.events_processed) ||
      ListsDiffer("timeline", a.timeline, b.timeline, why) ||
      differs("trace_digest", trace_digest, other.trace_digest) ||
      differs("trace_records", trace_records, other.trace_records)) {
    return false;
  }
  for (int t = 0; t < kNumSimEventTypes; ++t) {
    const auto type = static_cast<SimEventType>(t);
    const auto count = [type](const std::map<SimEventType, int64_t>& counts) {
      const auto it = counts.find(type);
      return it == counts.end() ? int64_t{0} : it->second;
    };
    if (count(trace_counts) != count(other.trace_counts)) {
      *why = std::string("trace_counts[") + SimEventTypeName(type) + "]";
      return false;
    }
  }
  if (differs("net_solves", net_solves, other.net_solves) ||
      differs("net_flows", net_flows, other.net_flows) ||
      differs("net_contended_flows", net_contended_flows, other.net_contended_flows)) {
    return false;
  }
  // Unequal record counts returned above, so an empty list here is a
  // hash-only trace.
  return events.empty() || other.events.empty() ||
         !ListsDiffer("events", events, other.events, why);
}

}  // namespace optimus
