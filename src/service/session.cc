#include "src/service/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/json_writer.h"
#include "src/common/logging.h"
#include "src/models/model_zoo.h"
#include "src/obs/exporters.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/workload.h"

namespace optimus {

namespace {

// Reads `key` of `body` into *out when present: an integral JSON number in
// int range. Anything else is a positioned error naming the key.
bool ReadIntKey(const std::string& source, const JsonValue& body, const char* key, int* out,
                std::string* error) {
  const JsonValue* v = body.Find(key);
  if (v == nullptr) {
    return true;
  }
  if (!v->is_number() || std::floor(v->AsDouble()) != v->AsDouble() ||
      v->AsDouble() < std::numeric_limits<int>::min() ||
      v->AsDouble() > std::numeric_limits<int>::max()) {
    *error = PositionedError(source, *v,
                             "\"" + std::string(key) + "\" must be an integer in [" +
                                 std::to_string(std::numeric_limits<int>::min()) + ", " +
                                 std::to_string(std::numeric_limits<int>::max()) + "]");
    return false;
  }
  *out = static_cast<int>(v->AsDouble());
  return true;
}

// Latency-histogram bounds: 1 µs to 1 s in a 1-2-5 ladder; service requests
// live at the microsecond end, a full `run` of a large scenario at the top.
std::vector<double> LatencyBounds() {
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
          1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 0.5, 1.0};
}

}  // namespace

std::unique_ptr<ServiceSession> ServiceSession::Create(std::string genesis_text,
                                                       std::string source_name,
                                                       SessionOverrides overrides,
                                                       std::string* error) {
  OPTIMUS_CHECK(error != nullptr);
  if (!overrides.policy.empty() && FindPolicy(overrides.policy, error) == nullptr) {
    return nullptr;
  }
  std::unique_ptr<ServiceSession> session(new ServiceSession());
  session->source_ = "<request>";
  session->genesis_source_ = std::move(source_name);
  session->overrides_ = std::move(overrides);

  session->m_requests_ = session->registry_.AddCounter(
      "optimus_requests_total", "Service requests received.");
  session->m_errors_ = session->registry_.AddCounter(
      "optimus_request_errors_total", "Requests rejected with ok=false.");
  for (const std::string& op : ServiceOps()) {
    session->m_by_op_.push_back(session->registry_.AddCounter(
        "optimus_requests_" + op + "_total", "Requests with op=" + op + "."));
  }
  session->m_latency_ = session->registry_.AddHistogram(
      "optimus_service_latency_seconds",
      "Wall-clock service latency per request (profiling scope).",
      LatencyBounds(), /*profiling=*/true);

  if (!session->Rebuild(genesis_text, session->genesis_source_, error)) {
    return nullptr;
  }
  return session;
}

bool ServiceSession::Rebuild(const std::string& text, const std::string& source,
                             std::string* error) {
  ScenarioSpec scenario;
  if (!ParseScenario(text, source, &scenario, error)) {
    return false;
  }
  if (!overrides_.policy.empty()) {
    scenario.policies = {overrides_.policy};
  }
  if (overrides_.engine.has_value()) {
    scenario.sim.engine = *overrides_.engine;
  }
  if (overrides_.seed.has_value()) {
    scenario.seed = *overrides_.seed;
  }
  if (overrides_.threads != 0) {
    scenario.sim.threads = overrides_.threads;
  }
  // The run report carries a per-interval series; sample it so a session's
  // final report matches `optimus_sim --metrics-format=json` on the same
  // scenario (batch-equivalence acceptance).
  scenario.sim.obs.per_interval_series = true;
  // The overrides bypassed the parser's validation; an invalid one is a
  // rejected input, not a failed check in the Simulator constructor.
  if (std::vector<std::string> errors; !scenario.Validate(&errors)) {
    std::string joined;
    for (const std::string& e : errors) {
      joined += (joined.empty() ? "" : "; ") + e;
    }
    *error = source + ": " + joined;
    return false;
  }

  const std::string policy = scenario.policies.empty() ? std::string("optimus")
                                                       : scenario.policies[0];
  std::vector<JobSpec> specs = scenario.JobsForRepeat(0);
  int next_id = 0;
  for (const JobSpec& spec : specs) {
    next_id = std::max(next_id, spec.id + 1);
  }
  sim_ = std::make_unique<Simulator>(scenario.MakeSimConfig(policy, 0),
                                     scenario.cluster.Build(), std::move(specs));
  scenario_ = std::move(scenario);
  genesis_text_ = text;
  journal_.clear();
  next_job_id_ = next_id;
  advanced_to_s_ = 0.0;
  return true;
}

bool ServiceSession::ApplyJournalLine(const std::string& line, std::string* error) {
  ServiceRequest req;
  if (!ParseServiceRequest(line, "<journal>", 0, &req, error)) {
    return false;
  }
  if (!IsMutatingServiceOp(req.op)) {
    *error = PositionedError("<journal>", req.body,
                             "journal contains non-mutating op \"" + req.op + "\"");
    return false;
  }
  JsonObject scratch;
  if (req.op == "submit") {
    return HandleSubmit(req, &scratch, error);
  }
  if (req.op == "kill") {
    return HandleKill(req, &scratch, error);
  }
  if (req.op == "advance") {
    return HandleAdvance(req, &scratch, error);
  }
  OPTIMUS_CHECK(req.op == "run") << "unhandled mutating op " << req.op;
  return HandleRun(req, &scratch, error);
}

std::string ServiceSession::HandleLine(const std::string& line, bool* shutdown) {
  const auto started = std::chrono::steady_clock::now();
  ++sequence_;
  m_requests_->Add();

  ServiceRequest req;
  std::string error;
  JsonObject resp;
  bool ok = ParseServiceRequest(line, source_, sequence_, &req, &error);
  resp.Set("id", req.id);
  resp.Set("ok", true);  // key-order placeholder; overwritten in place below
  if (ok) {
    resp.Set("op", req.op);
    const std::vector<std::string>& ops = ServiceOps();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i] == req.op) {
        m_by_op_[i]->Add();
        break;
      }
    }
    if (req.op == "submit") {
      ok = HandleSubmit(req, &resp, &error);
    } else if (req.op == "kill") {
      ok = HandleKill(req, &resp, &error);
    } else if (req.op == "what_if") {
      ok = HandleWhatIf(req, &resp, &error);
    } else if (req.op == "advance") {
      ok = HandleAdvance(req, &resp, &error);
    } else if (req.op == "run") {
      ok = HandleRun(req, &resp, &error);
    } else if (req.op == "metrics_snapshot") {
      ok = HandleMetricsSnapshot(req, &resp, &error);
    } else if (req.op == "snapshot") {
      ok = HandleSnapshot(req, &resp, &error);
    } else if (req.op == "restore") {
      ok = HandleRestore(req, &resp, &error);
    } else if (req.op == "scenario_swap") {
      ok = HandleScenarioSwap(req, &resp, &error);
    } else {
      OPTIMUS_CHECK(req.op == "shutdown") << "unhandled op " << req.op;
      if (shutdown != nullptr) {
        *shutdown = true;
      }
      resp.Set("now_s", sim_->now_s());
    }
  }
  resp.Set("ok", ok);
  if (!ok) {
    m_errors_->Add();
    resp.Set("error", error);
  } else if (IsMutatingServiceOp(req.op)) {
    journal_.push_back(line);
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  m_latency_->Record(elapsed.count());
  return resp.ToCompactString();
}

bool ServiceSession::BuildJobSpec(const ServiceRequest& req,
                                  bool require_future_arrival, JobSpec* spec,
                                  std::string* error) {
  const JsonValue& b = req.body;
  const JsonValue* model = b.Find("model");
  if (model == nullptr) {
    *error = PositionedError(source_, b, "missing required key \"model\"");
    return false;
  }
  if (!model->is_string()) {
    *error = PositionedError(source_, *model, "\"model\" must be a string");
    return false;
  }
  spec->model = TryFindModel(model->AsString());
  if (spec->model == nullptr) {
    *error = PositionedError(source_, *model,
                             "unknown model \"" + model->AsString() + "\"");
    return false;
  }

  // Range rules are JobSpec::Validate's, below; these reads check types.
  spec->id = next_job_id_;
  if (!ReadIntKey(source_, b, "job_id", &spec->id, error)) {
    return false;
  }

  spec->mode = TrainingMode::kSync;
  if (const JsonValue* mode = b.Find("mode")) {
    if (!mode->is_string() ||
        (mode->AsString() != "sync" && mode->AsString() != "async")) {
      *error = PositionedError(source_, *mode,
                               "\"mode\" must be \"sync\" or \"async\"");
      return false;
    }
    spec->mode = mode->AsString() == "sync" ? TrainingMode::kSync
                                            : TrainingMode::kAsync;
  }

  spec->convergence_delta = 0.02;
  if (const JsonValue* delta = b.Find("convergence_delta")) {
    if (!delta->is_number()) {
      *error = PositionedError(source_, *delta, "\"convergence_delta\" must be a number");
      return false;
    }
    spec->convergence_delta = delta->AsDouble();
  }

  const WorkloadSpec& workload = scenario_.workload;
  spec->patience = workload.patience;
  if (!ReadIntKey(source_, b, "patience", &spec->patience, error)) {
    return false;
  }

  spec->worker_demand = workload.worker_demand;
  spec->ps_demand = workload.ps_demand;
  spec->max_workers = workload.max_workers;
  spec->max_ps = workload.max_ps;
  if (!ReadIntKey(source_, b, "max_workers", &spec->max_workers, error) ||
      !ReadIntKey(source_, b, "max_ps", &spec->max_ps, error)) {
    return false;
  }

  spec->arrival_time_s = sim_->now_s();
  if (const JsonValue* arrival = b.Find("arrival_s")) {
    if (!arrival->is_number()) {
      *error = PositionedError(source_, *arrival, "\"arrival_s\" must be a number");
      return false;
    }
    spec->arrival_time_s = arrival->AsDouble();
    if (require_future_arrival && spec->arrival_time_s < sim_->now_s()) {
      std::ostringstream os;
      os << "\"arrival_s\" " << spec->arrival_time_s << " is in the past (now "
         << sim_->now_s() << ")";
      *error = PositionedError(source_, *arrival, os.str());
      return false;
    }
  }

  // Sized like a generated job: the generators' base dataset downscale.
  spec->dataset_scale =
      DatasetScaleFor(*spec->model, spec->mode, workload.sizes.target_steps_per_epoch);
  // The job rules live in JobSpec::Validate; its first message is positioned
  // at the request key it names (the record's "id" is the request's
  // "job_id"), or at the request for a field it cannot set.
  if (std::vector<std::string> errors; !spec->Validate(&errors)) {
    const std::string& message = errors.front();
    const std::string field = message.substr(0, message.find(':'));
    const std::string key = field == "id" ? "job_id" : field;
    const JsonValue* at = b.Find(key);
    *error = PositionedError(source_, at != nullptr ? *at : b,
                             "\"" + key + "\"" + message.substr(field.size()));
    return false;
  }
  return true;
}

bool ServiceSession::HandleSubmit(const ServiceRequest& req, JsonObject* resp,
                                  std::string* error) {
  JobSpec spec;
  if (!BuildJobSpec(req, /*require_future_arrival=*/true, &spec, error)) {
    return false;
  }
  std::string sim_error;
  if (!sim_->SubmitJob(spec, &sim_error)) {
    *error = PositionedError(source_, req.body, sim_error);
    return false;
  }
  next_job_id_ = std::max(next_job_id_, spec.id + 1);
  resp->Set("job_id", spec.id);
  resp->Set("arrival_s", spec.arrival_time_s);
  resp->Set("total_jobs", sim_->metrics().total_jobs);
  resp->Set("now_s", sim_->now_s());
  return true;
}

bool ServiceSession::HandleKill(const ServiceRequest& req, JsonObject* resp,
                                std::string* error) {
  const JsonValue* id = req.body.Find("job_id");
  if (id == nullptr) {
    *error = PositionedError(source_, req.body, "missing required key \"job_id\"");
    return false;
  }
  int job_id = 0;
  if (!ReadIntKey(source_, req.body, "job_id", &job_id, error)) {
    return false;
  }
  std::string sim_error;
  if (!sim_->KillJob(job_id, &sim_error)) {
    *error = PositionedError(source_, *id, sim_error);
    return false;
  }
  resp->Set("job_id", job_id);
  resp->Set("completed_jobs", sim_->metrics().completed_jobs);
  resp->Set("now_s", sim_->now_s());
  return true;
}

bool ServiceSession::HandleWhatIf(const ServiceRequest& req, JsonObject* resp,
                                  std::string* error) {
  JobSpec spec;
  if (!BuildJobSpec(req, /*require_future_arrival=*/false, &spec, error)) {
    return false;
  }
  const WhatIfResult result = sim_->WhatIf(spec);
  resp->Set("admitted", result.admitted);
  resp->Set("num_ps", result.new_job_alloc.num_ps);
  resp->Set("num_workers", result.new_job_alloc.num_workers);
  resp->Set("completion_s", result.new_job_completion_s);
  resp->Set("total_slowdown_s", result.total_slowdown_s);
  resp->Set("jobs_considered",
            static_cast<int64_t>(result.baseline_completion_s.size()));
  resp->Set("now_s", sim_->now_s());
  return true;
}

bool ServiceSession::HandleAdvance(const ServiceRequest& req, JsonObject* resp,
                                   std::string* error) {
  const JsonValue* to = req.body.Find("to_s");
  const JsonValue* dt = req.body.Find("dt_s");
  if ((to == nullptr) == (dt == nullptr)) {
    *error = PositionedError(source_, req.body,
                             "advance needs exactly one of \"to_s\" / \"dt_s\"");
    return false;
  }
  const JsonValue* given = to != nullptr ? to : dt;
  if (!given->is_number()) {
    *error = PositionedError(source_, *given,
                             to != nullptr ? "\"to_s\" must be a number"
                                           : "\"dt_s\" must be a number");
    return false;
  }
  const double now = std::max(sim_->now_s(), advanced_to_s_);
  const double target = to != nullptr ? to->AsDouble() : now + dt->AsDouble();
  if (target < now) {
    std::ostringstream os;
    os << "target time " << target << " is in the past (now " << now << ")";
    *error = PositionedError(source_, *given, os.str());
    return false;
  }
  sim_->AdvanceTo(target);
  advanced_to_s_ = target;
  resp->Set("now_s", sim_->now_s());
  resp->Set("completed_jobs", sim_->metrics().completed_jobs);
  resp->Set("total_jobs", sim_->metrics().total_jobs);
  return true;
}

bool ServiceSession::HandleRun(const ServiceRequest& req, JsonObject* resp,
                               std::string* error) {
  (void)req;
  (void)error;
  const RunMetrics metrics = sim_->Run();
  resp->Set("completed_jobs", metrics.completed_jobs);
  resp->Set("total_jobs", metrics.total_jobs);
  resp->Set("avg_jct_s", metrics.avg_jct_s);
  resp->Set("makespan_s", metrics.makespan_s);
  resp->Set("audit_violations", metrics.audit_violations);
  resp->Set("now_s", sim_->now_s());
  return true;
}

bool ServiceSession::HandleMetricsSnapshot(const ServiceRequest& req,
                                           JsonObject* resp, std::string* error) {
  std::string format = "report";
  if (const JsonValue* f = req.body.Find("format")) {
    if (!f->is_string() || (f->AsString() != "report" && f->AsString() != "prom")) {
      *error = PositionedError(source_, *f,
                               "\"format\" must be \"report\" or \"prom\"");
      return false;
    }
    format = f->AsString();
  }
  std::string scope = "sim";
  if (const JsonValue* s = req.body.Find("scope")) {
    if (!s->is_string() || (s->AsString() != "sim" && s->AsString() != "service")) {
      *error = PositionedError(source_, *s,
                               "\"scope\" must be \"sim\" or \"service\"");
      return false;
    }
    scope = s->AsString();
  }
  ExportOptions options;
  // Profiling metrics are wall-clock: excluded by default so snapshot
  // responses stay bitwise deterministic (golden replay sessions).
  options.include_profiling = false;
  if (const JsonValue* p = req.body.Find("include_profiling")) {
    if (!p->is_bool()) {
      *error = PositionedError(source_, *p,
                               "\"include_profiling\" must be a boolean");
      return false;
    }
    options.include_profiling = p->AsBool();
  }
  std::string payload;
  if (scope == "sim") {
    payload = format == "report"
                  ? ExportJsonReportString(sim_->registry(), &sim_->series(),
                                           &sim_->flight_recorder(), options)
                  : ExportPrometheusString(sim_->registry(), options);
  } else {
    payload = format == "report"
                  ? ExportJsonReportString(registry_, nullptr, nullptr, options)
                  : ExportPrometheusString(registry_, options);
  }
  resp->Set("format", format);
  resp->Set("scope", scope);
  resp->Set("payload", payload);
  resp->Set("now_s", sim_->now_s());
  return true;
}

bool ServiceSession::HandleSnapshot(const ServiceRequest& req, JsonObject* resp,
                                    std::string* error) {
  (void)req;
  (void)error;
  resp->Set("genesis", genesis_text_);
  resp->Set("journal", journal_);
  resp->Set("journal_len", static_cast<int64_t>(journal_.size()));
  resp->Set("now_s", sim_->now_s());
  return true;
}

bool ServiceSession::HandleRestore(const ServiceRequest& req, JsonObject* resp,
                                   std::string* error) {
  const JsonValue* genesis = req.body.Find("genesis");
  if (genesis == nullptr) {
    *error = PositionedError(source_, req.body, "missing required key \"genesis\"");
    return false;
  }
  if (!genesis->is_string()) {
    *error = PositionedError(source_, *genesis, "\"genesis\" must be a string");
    return false;
  }
  std::vector<std::string> journal;
  if (const JsonValue* j = req.body.Find("journal")) {
    if (!j->is_array()) {
      *error = PositionedError(source_, *j,
                               "\"journal\" must be an array of strings");
      return false;
    }
    for (const JsonValue& entry : j->AsArray()) {
      if (!entry.is_string()) {
        *error = PositionedError(source_, entry, "journal entries must be strings");
        return false;
      }
      journal.push_back(entry.AsString());
    }
  }
  // Rebuild from the snapshot's genesis, then deterministically re-apply its
  // journal. A failure mid-journal leaves the session at the genesis plus the
  // journal prefix that applied cleanly (reported in the error).
  std::string rebuild_error;
  if (!Rebuild(genesis->AsString(), "<restore>", &rebuild_error)) {
    *error = PositionedError(source_, *genesis, rebuild_error);
    return false;
  }
  for (size_t i = 0; i < journal.size(); ++i) {
    std::string apply_error;
    if (!ApplyJournalLine(journal[i], &apply_error)) {
      std::ostringstream os;
      os << "journal entry " << i << " failed: " << apply_error;
      *error = PositionedError(source_, req.body, os.str());
      return false;
    }
    journal_.push_back(journal[i]);
  }
  resp->Set("journal_len", static_cast<int64_t>(journal_.size()));
  resp->Set("total_jobs", sim_->metrics().total_jobs);
  resp->Set("now_s", sim_->now_s());
  return true;
}

bool ServiceSession::HandleScenarioSwap(const ServiceRequest& req,
                                        JsonObject* resp, std::string* error) {
  const JsonValue* inline_text = req.body.Find("scenario");
  const JsonValue* path = req.body.Find("path");
  if ((inline_text == nullptr) == (path == nullptr)) {
    *error = PositionedError(
        source_, req.body,
        "scenario_swap needs exactly one of \"scenario\" / \"path\"");
    return false;
  }
  std::string text;
  std::string source;
  if (inline_text != nullptr) {
    if (!inline_text->is_string()) {
      *error = PositionedError(source_, *inline_text,
                               "\"scenario\" must be a string");
      return false;
    }
    text = inline_text->AsString();
    source = "<scenario_swap>";
  } else {
    if (!path->is_string()) {
      *error = PositionedError(source_, *path, "\"path\" must be a string");
      return false;
    }
    std::ifstream in(path->AsString());
    if (!in) {
      *error = PositionedError(source_, *path,
                               "cannot read \"" + path->AsString() + "\"");
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    source = path->AsString();
  }
  std::string rebuild_error;
  if (!Rebuild(text, source, &rebuild_error)) {
    *error = PositionedError(source_, req.body, rebuild_error);
    return false;
  }
  resp->Set("scenario", scenario_.name);
  resp->Set("total_jobs", sim_->metrics().total_jobs);
  resp->Set("now_s", sim_->now_s());
  return true;
}

}  // namespace optimus
