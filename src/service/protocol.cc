#include "src/service/protocol.h"

#include <cmath>
#include <sstream>

#include "src/common/logging.h"

namespace optimus {

namespace {

struct OpSpec {
  const char* name;
  bool mutating;
  // Keys beyond the common {"op", "id", "t_s"} set.
  std::vector<const char*> keys;
};

// The protocol: adding an op means adding a row here, a handler in
// session.cc, and a section in docs/SERVICE.md.
const std::vector<OpSpec>& Ops() {
  static const std::vector<OpSpec>* ops = new std::vector<OpSpec>{
      {"submit", true,
       {"model", "job_id", "arrival_s", "mode", "convergence_delta", "patience",
        "max_workers", "max_ps"}},
      {"kill", true, {"job_id"}},
      {"what_if", false,
       {"model", "job_id", "mode", "convergence_delta", "patience",
        "max_workers", "max_ps"}},
      {"advance", true, {"to_s", "dt_s"}},
      {"run", true, {}},
      {"metrics_snapshot", false, {"format", "scope", "include_profiling"}},
      {"snapshot", false, {}},
      {"restore", false, {"genesis", "journal"}},
      {"scenario_swap", false, {"scenario", "path"}},
      {"shutdown", false, {}},
  };
  return *ops;
}

const OpSpec* FindOp(const std::string& name) {
  for (const OpSpec& op : Ops()) {
    if (name == op.name) {
      return &op;
    }
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& ServiceOps() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
    for (const OpSpec& op : Ops()) {
      v->push_back(op.name);
    }
    return v;
  }();
  return *names;
}

bool IsMutatingServiceOp(const std::string& op) {
  const OpSpec* spec = FindOp(op);
  return spec != nullptr && spec->mutating;
}

std::string PositionedError(const std::string& source, const JsonValue& at,
                            const std::string& message) {
  std::ostringstream os;
  os << source << ":" << at.line() << ":" << at.column() << ": " << message;
  return os.str();
}

bool ParseServiceRequest(const std::string& line, const std::string& source,
                         int64_t sequence, ServiceRequest* request,
                         std::string* error) {
  OPTIMUS_CHECK(request != nullptr);
  OPTIMUS_CHECK(error != nullptr);
  request->id = sequence;
  if (!ParseJson(line, source, &request->body, error)) {
    return false;
  }
  const JsonValue& body = request->body;
  if (!body.is_object()) {
    *error = PositionedError(source, body, "request must be a JSON object");
    return false;
  }
  const JsonValue* op = body.Find("op");
  if (op == nullptr) {
    *error = PositionedError(source, body, "missing required key \"op\"");
    return false;
  }
  if (!op->is_string()) {
    *error = PositionedError(source, *op, "\"op\" must be a string");
    return false;
  }
  request->op = op->AsString();
  const OpSpec* spec = FindOp(request->op);
  if (spec == nullptr) {
    std::string known;
    for (const std::string& name : ServiceOps()) {
      known += known.empty() ? name : "|" + name;
    }
    *error = PositionedError(
        source, *op, "unknown op \"" + request->op + "\" (expected " + known + ")");
    return false;
  }
  if (const JsonValue* id = body.Find("id")) {
    if (!id->is_number() || std::floor(id->AsDouble()) != id->AsDouble()) {
      *error = PositionedError(source, *id, "\"id\" must be an integer");
      return false;
    }
    request->id = id->AsInt();
  }
  if (const JsonValue* t = body.Find("t_s")) {
    if (!t->is_number()) {
      *error = PositionedError(source, *t, "\"t_s\" must be a number");
      return false;
    }
  }
  for (const std::string& key : body.Keys()) {
    if (key == "op" || key == "id" || key == "t_s") {
      continue;
    }
    bool allowed = false;
    for (const char* k : spec->keys) {
      if (key == k) {
        allowed = true;
        break;
      }
    }
    if (!allowed) {
      *error = PositionedError(source, *body.Find(key),
                               "unexpected key \"" + key + "\" for op \"" +
                                   request->op + "\"");
      return false;
    }
  }
  return true;
}

}  // namespace optimus
