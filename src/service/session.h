// ServiceSession: one live simulator behind the NDJSON protocol.
//
// The session owns a Simulator built from a genesis scenario (scenario-v2
// JSON, docs/SCENARIOS.md) and dispatches protocol requests against it via
// the re-entrant stepping API (docs/ALGORITHMS.md §17). Determinism is the
// design center: for a fixed request stream every response byte is fixed —
// responses never carry wall-clock values, metric snapshots exclude
// profiling metrics unless explicitly asked, and what-if queries run against
// a scratch allocator so they perturb nothing.
//
// Snapshot/restore is event-sourced. Serializing a live simulator (model
// fits, NNLS caches, RNG engine state) is neither feasible nor necessary:
// because replay is exact, the pair (genesis scenario text, journal of
// mutating request lines) IS the state. `snapshot` returns that pair;
// `restore` rebuilds the simulator from the genesis and re-applies the
// journal, yielding a session whose remaining outputs are bitwise identical
// to the uninterrupted one.

#ifndef SRC_SERVICE_SESSION_H_
#define SRC_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/obs/metrics_registry.h"
#include "src/service/protocol.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

namespace optimus {

// CLI-level overrides re-applied to every genesis scenario the session loads
// (initial construction, restore, scenario_swap): a snapshot taken under
// them restores correctly because the session remembers and re-applies them.
struct SessionOverrides {
  std::string policy;                // empty = the scenario's first policy
  std::optional<SimEngine> engine;   // nullopt = the scenario's engine
  std::optional<uint64_t> seed;      // nullopt = the scenario's seed
  int threads = 0;                   // 0 = the scenario's thread count
};

class ServiceSession {
 public:
  // Builds a session from genesis scenario text. Returns null with a
  // diagnostic in *error when the scenario does not parse/validate.
  static std::unique_ptr<ServiceSession> Create(std::string genesis_text,
                                                std::string source_name,
                                                SessionOverrides overrides,
                                                std::string* error);

  // Handles one request line end to end: parse, validate, dispatch, journal
  // (mutating ops), count, and time. Returns the single-line JSON response
  // (no trailing newline). Sets *shutdown when the request asked the service
  // to stop. Never throws and never crashes on bad input — every rejection
  // is an ok=false response carrying a line:col diagnostic.
  std::string HandleLine(const std::string& line, bool* shutdown);

  Simulator& simulator() { return *sim_; }
  const Simulator& simulator() const { return *sim_; }

  // Service-level metric catalog: request totals per op (deterministic) and
  // the wall-clock service latency histogram (profiling scope).
  const MetricsRegistry& service_registry() const { return registry_; }
  const Histogram& latency_histogram() const { return *m_latency_; }

  int64_t requests() const { return static_cast<int64_t>(m_requests_->value()); }
  int64_t errors() const { return static_cast<int64_t>(m_errors_->value()); }
  // Whether the simulator's invariant auditor has reported any violation so
  // far; the server and the replay harness propagate this as exit code 3.
  bool audit_failed() const { return sim_->metrics().audit_violations > 0; }

  const std::string& genesis_text() const { return genesis_text_; }
  const std::vector<std::string>& journal() const { return journal_; }

 private:
  ServiceSession() = default;

  // Rebuilds sim_ from scenario text under overrides_ (shared by Create,
  // restore, and scenario_swap). False + diagnostic on a bad scenario.
  bool Rebuild(const std::string& text, const std::string& source,
               std::string* error);
  // Re-applies one journaled request line during restore; bypasses the
  // request counters (a restore is one request regardless of journal size).
  bool ApplyJournalLine(const std::string& line, std::string* error);

  // Op handlers. Each fills the response body (already carrying id/ok/op) or
  // returns false with a positioned diagnostic.
  bool HandleSubmit(const ServiceRequest& req, JsonObject* resp, std::string* error);
  bool HandleKill(const ServiceRequest& req, JsonObject* resp, std::string* error);
  bool HandleWhatIf(const ServiceRequest& req, JsonObject* resp, std::string* error);
  bool HandleAdvance(const ServiceRequest& req, JsonObject* resp, std::string* error);
  bool HandleRun(const ServiceRequest& req, JsonObject* resp, std::string* error);
  bool HandleMetricsSnapshot(const ServiceRequest& req, JsonObject* resp,
                             std::string* error);
  bool HandleSnapshot(const ServiceRequest& req, JsonObject* resp, std::string* error);
  bool HandleRestore(const ServiceRequest& req, JsonObject* resp, std::string* error);
  bool HandleScenarioSwap(const ServiceRequest& req, JsonObject* resp,
                          std::string* error);

  // The JobSpec a submit/what_if request describes: zoo model by name, the
  // scenario workload's demands/caps as defaults, dataset downscaled to the
  // workload's target steps/epoch exactly like the generator's base rule.
  bool BuildJobSpec(const ServiceRequest& req, bool require_future_arrival,
                    JobSpec* spec, std::string* error);

  std::string source_;        // diagnostic source name for request positions
  std::string genesis_text_;  // scenario text the current sim was built from
  std::string genesis_source_;
  SessionOverrides overrides_;
  ScenarioSpec scenario_;
  std::unique_ptr<Simulator> sim_;
  std::vector<std::string> journal_;  // mutating request lines since genesis
  int next_job_id_ = 0;               // smallest id above every known job id
  // Furthest time an advance has targeted since genesis. The event engine
  // stops at its last event, so now_s can trail the requested time; relative
  // advances build on this instead of on now_s.
  double advanced_to_s_ = 0.0;
  int64_t sequence_ = 0;              // requests seen (1-based ids)

  MetricsRegistry registry_;
  Counter* m_requests_ = nullptr;
  Counter* m_errors_ = nullptr;
  std::vector<Counter*> m_by_op_;  // parallel to ServiceOps()
  Histogram* m_latency_ = nullptr;
};

}  // namespace optimus

#endif  // SRC_SERVICE_SESSION_H_
