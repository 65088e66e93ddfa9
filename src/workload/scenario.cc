#include "src/workload/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "src/common/json_writer.h"
#include "src/common/logging.h"
#include "src/sim/fault_injector.h"
#include "src/workload/json.h"

namespace optimus {

// ---------------------------------------------------------------------------
// ClusterSpec
// ---------------------------------------------------------------------------

int ClusterSpec::NumServers() const {
  if (testbed) {
    return static_cast<int>(BuildTestbed().size());
  }
  int64_t n = 0;
  for (const ServerClassSpec& c : classes) {
    n += c.count;
  }
  // Clamped: the parser counts racks before Validate rejects a bad count.
  return static_cast<int>(std::clamp<int64_t>(n, 0, std::numeric_limits<int>::max()));
}

int ClusterSpec::NumRacks() const {
  const int n = NumServers();
  if (rack_size <= 0 || n == 0) {
    return 1;
  }
  return 1 + (n - 1) / rack_size;
}

std::pair<int, int> ClusterSpec::RackRange(int rack) const {
  const int n = NumServers();
  OPTIMUS_CHECK(rack >= 0 && rack < NumRacks())
      << "rack " << rack << " out of range (cluster has " << NumRacks()
      << " rack(s))";
  if (rack_size <= 0) {
    return {0, n - 1};
  }
  const int first = rack * rack_size;
  const int last = static_cast<int>(std::min<int64_t>(n - 1, int64_t{first} + rack_size - 1));
  return {first, last};
}

std::vector<Server> ClusterSpec::Build() const {
  {
    std::vector<std::string> errors;
    if (!Validate(&errors)) {
      std::string joined;
      for (const std::string& e : errors) {
        joined += (joined.empty() ? "" : "; ") + e;
      }
      OPTIMUS_LOG(Fatal) << "invalid ClusterSpec: " << joined;
    }
  }
  if (testbed) {
    return BuildTestbed();
  }
  std::vector<Server> servers;
  servers.reserve(static_cast<size_t>(NumServers()));
  int id = 0;
  for (const ServerClassSpec& c : classes) {
    for (int i = 0; i < c.count; ++i) {
      servers.emplace_back(id++, c.capacity);
    }
  }
  return servers;
}

bool ClusterSpec::Validate(std::vector<std::string>* errors) const {
  std::vector<std::string> local;
  if (testbed) {
    if (!classes.empty()) {
      local.push_back("cluster.classes: must be absent when testbed is true");
    }
  } else {
    if (classes.empty()) {
      local.push_back("cluster.classes: need at least one server class");
    }
    for (size_t i = 0; i < classes.size(); ++i) {
      const ServerClassSpec& c = classes[i];
      const std::string field = "cluster.classes[" + std::to_string(i) + "]";
      if (c.name.empty()) {
        local.push_back(field + ".name: must not be empty");
      }
      if (c.count < 1) {
        local.push_back(field + ".count: must be >= 1");
      }
      if (!(c.capacity.cpu() > 0.0)) {
        local.push_back(field + ".cpu: must be > 0");
      }
      if (!(c.capacity.memory_gb() > 0.0)) {
        local.push_back(field + ".memory_gb: must be > 0");
      }
      if (c.capacity.gpu() < 0.0) {
        local.push_back(field + ".gpu: must be >= 0");
      }
      if (c.capacity.bandwidth_gbps() < 0.0) {
        local.push_back(field + ".bandwidth_gbps: must be >= 0");
      }
    }
    if (NumServers() > kMaxServers) {
      local.push_back("cluster.classes: must hold at most " + std::to_string(kMaxServers) +
                      " servers");
    }
  }
  if (rack_size < 0) {
    local.push_back("cluster.rack_size: must be >= 0 (0 = one rack)");
  }
  const bool ok = local.empty();
  if (errors != nullptr) {
    errors->insert(errors->end(), local.begin(), local.end());
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Rack-reference expansion
// ---------------------------------------------------------------------------

bool ExpandRackReferences(const std::string& plan, const ClusterSpec& cluster,
                          std::string* expanded, std::string* error) {
  OPTIMUS_CHECK(expanded != nullptr);
  std::string out;
  out.reserve(plan.size());
  size_t i = 0;
  while (i < plan.size()) {
    // A rack *parameter* is "rack=" preceded by ':' or ',' (the event name
    // "rack@..." is followed by '@', never '=').
    if (plan.compare(i, 5, "rack=") == 0 && i > 0 &&
        (plan[i - 1] == ':' || plan[i - 1] == ',')) {
      size_t j = i + 5;
      size_t digits = 0;
      int rack = 0;
      while (j < plan.size() && plan[j] >= '0' && plan[j] <= '9') {
        rack = rack * 10 + (plan[j] - '0');
        ++j;
        ++digits;
      }
      if (digits == 0) {
        if (error != nullptr) {
          *error = "fault plan: rack= needs a rack index";
        }
        return false;
      }
      if (rack >= cluster.NumRacks()) {
        if (error != nullptr) {
          *error = "fault plan: rack " + std::to_string(rack) +
                   " out of range (cluster has " +
                   std::to_string(cluster.NumRacks()) + " rack(s))";
        }
        return false;
      }
      const std::pair<int, int> range = cluster.RackRange(rack);
      out += "servers=" + std::to_string(range.first) + "-" +
             std::to_string(range.second);
      i = j;
      continue;
    }
    out += plan[i];
    ++i;
  }
  *expanded = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------------

bool ScenarioSpec::Validate(std::vector<std::string>* errors) const {
  std::vector<std::string> local;
  if (name.empty()) {
    local.push_back("name: must not be empty");
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      local.push_back(
          "name: must match [a-z0-9_-]+ (it names report files); got \"" +
          name + "\"");
      break;
    }
  }
  if (repeats < 1) {
    local.push_back("repeats: must be >= 1");
  }
  if (policies.empty()) {
    local.push_back("policies: need at least one policy");
  }
  for (size_t i = 0; i < policies.size(); ++i) {
    if (std::string unknown; FindPolicy(policies[i], &unknown) == nullptr) {
      local.push_back("policies[" + std::to_string(i) + "]: " + unknown);
    }
    for (size_t j = 0; j < i; ++j) {
      if (policies[j] == policies[i]) {
        local.push_back("policies[" + std::to_string(i) + "]: duplicate \"" +
                        policies[i] + "\"");
        break;
      }
    }
  }
  {
    std::vector<std::string> sub;
    if (!workload.Validate(&sub)) {
      for (const std::string& e : sub) {
        local.push_back("workload." + e);
      }
    }
  }
  cluster.Validate(&local);
  {
    std::vector<std::string> sub;
    if (!sim.Validate(&sub)) {
      for (const std::string& e : sub) {
        local.push_back("knobs: " + e);
      }
    }
  }
  // Fault plans name concrete servers; make sure they exist in *this*
  // cluster (the injector would silently ignore them, which in a declarative
  // scenario is a typo, not a feature).
  // One error per outage, naming its first id outside the cluster.
  const int num_servers = cluster.NumServers();
  for (size_t i = 0; i < sim.fault.plan.outages.size(); ++i) {
    for (const ServerRange& range : sim.fault.plan.outages[i].servers) {
      if (range.first < 0 || range.last >= num_servers) {
        const int s = range.first < 0 ? range.first : std::max(range.first, num_servers);
        local.push_back("faults.plan: outage " + std::to_string(i) +
                        " names server " + std::to_string(s) +
                        " outside the cluster (0-" +
                        std::to_string(num_servers - 1) + ")");
        break;
      }
    }
  }
  const bool ok = local.empty();
  if (errors != nullptr) {
    errors->insert(errors->end(), local.begin(), local.end());
  }
  return ok;
}

SimulatorConfig ScenarioSpec::MakeSimConfig(const std::string& policy,
                                            int repeat) const {
  SimulatorConfig config = sim;
  config.policy = policy;
  config.seed = seed + static_cast<uint64_t>(repeat);
  // Rack-aware placement and the fabric read the rack layout (0 = one rack).
  config.rack_size = cluster.rack_size;
  return config;
}

std::vector<JobSpec> ScenarioSpec::JobsForRepeat(int repeat) const {
  if (!jobs.empty()) {
    return jobs;
  }
  // optimus_sim's generated path builds a scenario from its flags and draws
  // here too, so a scenario with its defaults (scenarios/fig11_testbed.json)
  // replays the CLI's jobs exactly.
  Rng rng((seed + static_cast<uint64_t>(repeat)) ^ 0x5eedULL);
  return GenerateJobs(workload, &rng);
}

// ---------------------------------------------------------------------------
// The job record
// ---------------------------------------------------------------------------

namespace {

const char* CommName(CommMode comm) {
  return comm == CommMode::kAllReduce ? "allreduce" : "ps";
}

bool ParseCommName(const std::string& name, CommMode* comm) {
  const bool known = name == "ps" || name == "allreduce";
  if (known) {
    *comm = name == "ps" ? CommMode::kParameterServer : CommMode::kAllReduce;
  }
  return known;
}

// sync or async; the workload's "mode" key also takes "mixed".
bool ParseModeName(const std::string& name, TrainingMode* mode) {
  const bool known = name == "sync" || name == "async";
  if (known) {
    *mode = name == "sync" ? TrainingMode::kSync : TrainingMode::kAsync;
  }
  return known;
}

// The record's number keys past id, in dump order.
constexpr std::pair<const char*, double JobSpec::*> kDoubleFields[] = {
    {"arrival_s", &JobSpec::arrival_time_s},
    {"convergence_delta", &JobSpec::convergence_delta},
    {"dataset_scale", &JobSpec::dataset_scale},
    {"cpu_sensitivity", &JobSpec::cpu_sensitivity},
    {"mem_sensitivity", &JobSpec::mem_sensitivity}};
constexpr std::pair<const char*, int JobSpec::*> kIntFields[] = {
    {"patience", &JobSpec::patience}, {"global_batch", &JobSpec::global_batch},
    {"async_minibatch", &JobSpec::async_minibatch}, {"max_ps", &JobSpec::max_ps},
    {"max_workers", &JobSpec::max_workers}, {"batch_min", &JobSpec::batch_min},
    {"batch_max", &JobSpec::batch_max}};

}  // namespace

std::string EncodeJobRecords(const std::vector<JobSpec>& jobs) {
  std::string out = "[\n";
  // One `"key": value` member; every member but an object's first is led by ", ".
  auto key = [&out](const char* name) {
    out.append(out.back() == '{' ? "\"" : ", \"").append(name).append("\": ");
  };
  auto number = [&](const char* name, double value) {
    key(name);
    char buf[32];  // the shortest round-trip form ("0.1"); ints too, exactly
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  auto text = [&](const char* name, const std::string& value) {
    key(name);
    AppendJsonString(value, &out);
  };
  auto object = [&](const char* name,
                    std::initializer_list<std::pair<const char*, double>> members) {
    key(name);
    out.append("{");
    for (const auto& [member, value] : members) {
      number(member, value);
    }
    out.append("}");
  };
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    OPTIMUS_CHECK(job.model != nullptr) << "job " << job.id;
    out.append("  {");
    number("id", job.id);
    text("model", job.model->name);
    text("mode", TrainingModeName(job.mode));
    text("comm", CommName(job.comm));
    for (const auto& [name, field] : kDoubleFields) {
      number(name, job.*field);
    }
    for (const auto& [name, field] : kIntFields) {
      number(name, job.*field);
    }
    for (const auto& [name, r] : {std::pair{"worker_demand", job.worker_demand},
                                  std::pair{"ps_demand", job.ps_demand}}) {
      object(name, {{"cpu", r.cpu()}, {"memory_gb", r.memory_gb()}, {"gpu", r.gpu()},
                    {"bandwidth_gbps", r.bandwidth_gbps()}});
    }
    if (const std::optional<LearningRateDrop>& drop = job.lr_drop) {
      object("lr_drop", {{"epoch", drop->epoch}, {"c0", drop->c0}, {"c2", drop->c2}});
    }
    out.append(i + 1 < jobs.size() ? "},\n" : "}\n");
  }
  return out.append("]\n");
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

constexpr char kScenarioSchemaV1[] = "scenario-v1";

// Accumulates "<source>:<line>:<col>: <path>: message" diagnostics; parsing
// continues past errors where safe so one load reports every problem.
class ScenarioParser {
 public:
  explicit ScenarioParser(std::string source) : source_(std::move(source)) {}

  bool ok() const { return errors_.empty(); }
  std::string JoinedErrors() const {
    std::string joined;
    for (const std::string& e : errors_) {
      joined += (joined.empty() ? "" : "; ") + e;
    }
    return joined;
  }

  void Error(const JsonValue& at, const std::string& path,
             const std::string& message) {
    errors_.push_back(source_ + ":" + std::to_string(at.line()) + ":" +
                      std::to_string(at.column()) + ": " + path + ": " + message);
  }

  // Whether `v` is an object; diagnoses it at `path` when it is not.
  bool CheckObject(const JsonValue& v, const std::string& path) {
    if (!v.is_object()) {
      Error(v, path, std::string("expected an object, got ") + JsonTypeName(v.type()));
    }
    return v.is_object();
  }

  // Rejects keys outside `allowed` (strict mode: a typo'd knob must not
  // silently become a default).
  void CheckKeys(const JsonValue& obj, const std::string& path,
                 const std::vector<std::string>& allowed) {
    for (const std::string& key : obj.Keys()) {
      bool found = false;
      for (const std::string& a : allowed) {
        if (key == a) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::string keys;
        for (const std::string& a : allowed) {
          keys += (keys.empty() ? "" : ", ") + a;
        }
        Error(*obj.Find(key), path,
              "unknown key \"" + key + "\" (allowed: " + keys + ")");
      }
    }
  }

  // Typed field readers: missing keys keep the default, wrong types are
  // diagnosed, numbers destined for integers must be integral.
  void ReadDouble(const JsonValue& obj, const std::string& key,
                  const std::string& path, double* out) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_number()) {
      Error(*v, path + "." + key,
            std::string("expected a number, got ") + JsonTypeName(v->type()));
      return;
    }
    *out = v->AsDouble();
  }

  void ReadInt(const JsonValue& obj, const std::string& key,
               const std::string& path, int64_t* out) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_number() || v->AsDouble() != std::floor(v->AsDouble()) ||
        std::abs(v->AsDouble()) > 9.007199254740992e15) {
      Error(*v, path + "." + key,
            std::string("expected an integer, got ") +
                (v->is_number() ? "a non-integral number"
                                : JsonTypeName(v->type())));
      return;
    }
    *out = static_cast<int64_t>(v->AsDouble());
  }

  void ReadIntField(const JsonValue& obj, const std::string& key,
                    const std::string& path, int* out) {
    int64_t wide = *out;
    ReadInt(obj, key, path, &wide);
    if (wide < std::numeric_limits<int>::min() || wide > std::numeric_limits<int>::max()) {
      Error(*obj.Find(key), path + "." + key,
            "expected an integer in int range, got " + std::to_string(wide));
      return;
    }
    *out = static_cast<int>(wide);
  }

  void ReadBool(const JsonValue& obj, const std::string& key,
                const std::string& path, bool* out) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_bool()) {
      Error(*v, path + "." + key,
            std::string("expected a boolean, got ") + JsonTypeName(v->type()));
      return;
    }
    *out = v->AsBool();
  }

  void ReadString(const JsonValue& obj, const std::string& key,
                  const std::string& path, std::string* out) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_string()) {
      Error(*v, path + "." + key,
            std::string("expected a string, got ") + JsonTypeName(v->type()));
      return;
    }
    *out = v->AsString();
  }

  // Reads string `key` into `*out` through the enum's one parser, `parse`
  // (an absent key keeps `*out`); another name is an error listing `expected`.
  template <typename Enum>
  void ReadName(const JsonValue& obj, const std::string& key, const std::string& path,
                const std::string& what, const std::string& expected,
                const char* (*name_of)(Enum), bool (*parse)(const std::string&, Enum*),
                Enum* out) {
    std::string name = name_of(*out);
    ReadString(obj, key, path, &name);
    if (!parse(name, out)) {
      Error(*obj.Find(key), path + "." + key,
            "unknown " + what + " \"" + name + "\" (expected " + expected + ")");
    }
  }

  void ParseResources(const JsonValue& obj, const std::string& path,
                      Resources* out) {
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path, {"cpu", "memory_gb", "gpu", "bandwidth_gbps"});
    double cpu = out->cpu();
    double memory_gb = out->memory_gb();
    double gpu = out->gpu();
    double bandwidth = out->bandwidth_gbps();
    ReadDouble(obj, "cpu", path, &cpu);
    ReadDouble(obj, "memory_gb", path, &memory_gb);
    ReadDouble(obj, "gpu", path, &gpu);
    ReadDouble(obj, "bandwidth_gbps", path, &bandwidth);
    *out = Resources(cpu, memory_gb, gpu, bandwidth);
  }

  void ParseArrivals(const JsonValue& obj, ArrivalSpec* out) {
    const std::string path = "workload.arrivals";
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path,
              {"kind", "window_s", "rate_per_interval", "interval_s",
               "spike_fraction", "spike_multiplier", "period_s",
               "peak_to_trough"});
    ReadName(obj, "kind", path, "arrival kind", "uniform, poisson, bursty, diurnal",
             ArrivalKindName, ParseArrivalKind, &out->kind);
    ReadDouble(obj, "window_s", path, &out->window_s);
    ReadDouble(obj, "rate_per_interval", path, &out->rate_per_interval);
    ReadDouble(obj, "interval_s", path, &out->interval_s);
    ReadDouble(obj, "spike_fraction", path, &out->spike_fraction);
    ReadDouble(obj, "spike_multiplier", path, &out->spike_multiplier);
    ReadDouble(obj, "period_s", path, &out->period_s);
    ReadDouble(obj, "peak_to_trough", path, &out->peak_to_trough);
  }

  void ParseSizes(const JsonValue& obj, JobSizeSpec* out) {
    const std::string path = "workload.sizes";
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path,
              {"kind", "pareto_alpha", "pareto_cap", "lognormal_sigma",
               "target_steps_per_epoch"});
    ReadName(obj, "kind", path, "size kind", "zoo, pareto, lognormal", JobSizeKindName,
             ParseJobSizeKind, &out->kind);
    ReadDouble(obj, "pareto_alpha", path, &out->pareto_alpha);
    ReadDouble(obj, "pareto_cap", path, &out->pareto_cap);
    ReadDouble(obj, "lognormal_sigma", path, &out->lognormal_sigma);
    int64_t steps = out->target_steps_per_epoch;
    ReadInt(obj, "target_steps_per_epoch", path, &steps);
    out->target_steps_per_epoch = steps;
  }

  void ParseModels(const JsonValue& obj, ModelMixSpec* out) {
    const std::string path = "workload.models";
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path, {"names", "weights", "cycle_first"});
    if (const JsonValue* names = obj.Find("names")) {
      if (!names->is_array()) {
        Error(*names, path + ".names", "expected an array of model names");
      } else {
        out->names.clear();
        for (const JsonValue& v : names->AsArray()) {
          if (!v.is_string()) {
            Error(v, path + ".names",
                  std::string("expected a string, got ") + JsonTypeName(v.type()));
            continue;
          }
          out->names.push_back(v.AsString());
        }
      }
    }
    if (const JsonValue* weights = obj.Find("weights")) {
      if (!weights->is_array()) {
        Error(*weights, path + ".weights", "expected an array of numbers");
      } else {
        out->weights.clear();
        for (const JsonValue& v : weights->AsArray()) {
          if (!v.is_number()) {
            Error(v, path + ".weights",
                  std::string("expected a number, got ") + JsonTypeName(v.type()));
            continue;
          }
          out->weights.push_back(v.AsDouble());
        }
      }
    }
    ReadBool(obj, "cycle_first", path, &out->cycle_first);
  }

  void ParseWorkload(const JsonValue& obj, WorkloadSpec* out) {
    const std::string path = "workload";
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path,
              {"jobs", "arrivals", "sizes", "models", "mode", "comm",
               "allreduce_fraction", "delta_lo", "delta_hi", "patience",
               "worker_demand", "ps_demand", "max_ps", "max_workers",
               "batch_min", "batch_max", "cpu_sensitivity",
               "mem_sensitivity"});
    ReadIntField(obj, "jobs", path, &out->num_jobs);
    if (const JsonValue* v = obj.Find("arrivals")) {
      ParseArrivals(*v, &out->arrivals);
    }
    if (const JsonValue* v = obj.Find("sizes")) {
      ParseSizes(*v, &out->sizes);
    }
    if (const JsonValue* v = obj.Find("models")) {
      ParseModels(*v, &out->models);
    }
    if (const JsonValue* v = obj.Find("mode")) {
      std::string mode;
      ReadString(obj, "mode", path, &mode);
      if (TrainingMode forced; ParseModeName(mode, &forced)) {
        out->forced_mode = forced;
      } else if (mode == "mixed") {
        out->forced_mode.reset();
      } else if (v->is_string()) {
        Error(*v, path + ".mode",
              "unknown mode \"" + mode + "\" (expected sync, async, mixed)");
      }
    }
    ReadName(obj, "comm", path, "comm architecture", "ps, allreduce", CommName, ParseCommName,
             &out->comm);
    ReadDouble(obj, "allreduce_fraction", path, &out->allreduce_fraction);
    ReadDouble(obj, "delta_lo", path, &out->delta_lo);
    ReadDouble(obj, "delta_hi", path, &out->delta_hi);
    ReadIntField(obj, "patience", path, &out->patience);
    if (const JsonValue* v = obj.Find("worker_demand")) {
      ParseResources(*v, path + ".worker_demand", &out->worker_demand);
    }
    if (const JsonValue* v = obj.Find("ps_demand")) {
      ParseResources(*v, path + ".ps_demand", &out->ps_demand);
      // All-reduce jobs run no PS tasks; a hand-written PS demand would be
      // silently discarded by the scheduler, so reject the contradiction.
      // A workload-level rule on the written key, not a per-job one: the
      // jobs it draws (and so a job record) keep a nonzero ps_demand, which
      // the scheduler ignores for all-reduce.
      if (out->comm == CommMode::kAllReduce &&
          !(out->ps_demand == Resources())) {
        Error(*v, path + ".ps_demand",
              "comm: \"allreduce\" jobs run no PS tasks; drop ps_demand or "
              "set it to all zeros");
      }
    }
    ReadIntField(obj, "max_ps", path, &out->max_ps);
    ReadIntField(obj, "max_workers", path, &out->max_workers);
    // Batch-adaptivity bounds and sensitivity profile overrides (policies
    // that ignore the batch / sensitivity dimensions never read them).
    ReadIntField(obj, "batch_min", path, &out->batch_min);
    ReadIntField(obj, "batch_max", path, &out->batch_max);
    ReadDouble(obj, "cpu_sensitivity", path, &out->cpu_sensitivity);
    ReadDouble(obj, "mem_sensitivity", path, &out->mem_sensitivity);
  }

  // One job record: every JobSpec field under its record key; `id` and
  // `model` are required. Omitted keys keep JobSpec's defaults, except the
  // container demands, which take WorkloadSpec's (as a generated job's).
  // A record that reads cleanly is then held to JobSpec::Validate, each
  // message positioned at the key it names. Returns whether it passed.
  bool ParseJob(const JsonValue& obj, const std::string& path, JobSpec* out) {
    if (!CheckObject(obj, path)) {
      return false;
    }
    CheckKeys(obj, path,
              {"id", "model", "mode", "comm", "arrival_s", "convergence_delta",
               "patience", "global_batch", "async_minibatch", "worker_demand",
               "ps_demand", "dataset_scale", "max_ps", "max_workers", "lr_drop",
               "batch_min", "batch_max", "cpu_sensitivity", "mem_sensitivity"});
    const size_t errors_before = errors_.size();
    for (const char* key : {"id", "model"}) {
      if (obj.Find(key) == nullptr) {
        Error(obj, path + "." + key, "missing (every job needs an id and a model)");
      }
    }
    ReadIntField(obj, "id", path, &out->id);
    std::string model;
    ReadString(obj, "model", path, &model);
    out->model = TryFindModel(model);
    if (out->model == nullptr && !model.empty()) {
      Error(*obj.Find("model"), path + ".model", "unknown model \"" + model + "\"");
    }
    ReadName(obj, "mode", path, "mode", "async, sync", TrainingModeName, ParseModeName,
             &out->mode);
    ReadName(obj, "comm", path, "comm architecture", "ps, allreduce", CommName, ParseCommName,
             &out->comm);
    for (const auto& [key, field] : kDoubleFields) {
      ReadDouble(obj, key, path, &(out->*field));
    }
    for (const auto& [key, field] : kIntFields) {
      ReadIntField(obj, key, path, &(out->*field));
    }
    const WorkloadSpec defaults;
    out->worker_demand = defaults.worker_demand;
    out->ps_demand = defaults.ps_demand;
    if (const JsonValue* v = obj.Find("worker_demand")) {
      ParseResources(*v, path + ".worker_demand", &out->worker_demand);
    }
    if (const JsonValue* v = obj.Find("ps_demand")) {
      ParseResources(*v, path + ".ps_demand", &out->ps_demand);
    }
    if (const JsonValue* v = obj.Find("lr_drop");
        v != nullptr && CheckObject(*v, path + ".lr_drop")) {
      CheckKeys(*v, path + ".lr_drop", {"epoch", "c0", "c2"});
      LearningRateDrop& drop = out->lr_drop.emplace();
      ReadDouble(*v, "epoch", path + ".lr_drop", &drop.epoch);
      ReadDouble(*v, "c0", path + ".lr_drop", &drop.c0);
      ReadDouble(*v, "c2", path + ".lr_drop", &drop.c2);
    }
    if (errors_.size() != errors_before) {
      return false;  // Validate would only restate a field that did not read
    }
    std::vector<std::string> problems;
    out->Validate(&problems);
    for (const std::string& problem : problems) {
      const size_t colon = problem.find(':');
      const std::string field = problem.substr(0, colon);
      const JsonValue* at = obj.Find(field);
      Error(at != nullptr ? *at : obj, path + "." + field, problem.substr(colon + 2));
    }
    return problems.empty();
  }

  // The top-level "jobs" array: 1 to kMaxJobs records with distinct ids,
  // stored stably sorted by arrival (a dump is already in that order).
  void ParseJobs(const JsonValue& arr, std::vector<JobSpec>* out) {
    if (!arr.is_array()) {
      Error(arr, "jobs",
            std::string("expected an array of job records, got ") + JsonTypeName(arr.type()));
      return;
    }
    const std::vector<JsonValue>& entries = arr.AsArray();
    if (std::vector<std::string> problems;
        !ValidateJobCount(static_cast<int64_t>(entries.size()), &problems)) {
      Error(arr, "jobs", problems.front().substr(std::string("jobs: ").size()));
      return;
    }
    std::unordered_map<int, size_t> first_entry;  // job id -> its first entry
    out->reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      const std::string path = "jobs[" + std::to_string(i) + "]";
      JobSpec job;
      if (!ParseJob(entries[i], path, &job)) {
        continue;
      }
      if (const auto [it, fresh] = first_entry.emplace(job.id, i); fresh) {
        out->push_back(job);
      } else {
        Error(*entries[i].Find("id"), path + ".id",
              "duplicate id " + std::to_string(job.id) + " (first at jobs[" +
                  std::to_string(it->second) + "])");
      }
    }
    std::stable_sort(out->begin(), out->end(), [](const JobSpec& a, const JobSpec& b) {
      return a.arrival_time_s < b.arrival_time_s;
    });
  }

  void ParseCluster(const JsonValue& obj, ClusterSpec* out) {
    const std::string path = "cluster";
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path, {"testbed", "classes", "rack_size"});
    ReadBool(obj, "testbed", path, &out->testbed);
    if (const JsonValue* classes = obj.Find("classes")) {
      out->testbed = obj.Find("testbed") != nullptr ? out->testbed : false;
      if (!classes->is_array()) {
        Error(*classes, path + ".classes", "expected an array of server classes");
      } else {
        out->classes.clear();
        for (size_t i = 0; i < classes->AsArray().size(); ++i) {
          const JsonValue& entry = classes->AsArray()[i];
          const std::string cpath = path + ".classes[" + std::to_string(i) + "]";
          if (!CheckObject(entry, cpath)) {
            continue;
          }
          CheckKeys(entry, cpath,
                    {"name", "count", "cpu", "memory_gb", "gpu",
                     "bandwidth_gbps"});
          ServerClassSpec spec;
          ReadString(entry, "name", cpath, &spec.name);
          ReadIntField(entry, "count", cpath, &spec.count);
          double cpu = 0.0;
          double memory_gb = 0.0;
          double gpu = 0.0;
          double bandwidth = 1.0;
          ReadDouble(entry, "cpu", cpath, &cpu);
          ReadDouble(entry, "memory_gb", cpath, &memory_gb);
          ReadDouble(entry, "gpu", cpath, &gpu);
          ReadDouble(entry, "bandwidth_gbps", cpath, &bandwidth);
          spec.capacity = Resources(cpu, memory_gb, gpu, bandwidth);
          out->classes.push_back(std::move(spec));
        }
      }
    }
    ReadIntField(obj, "rack_size", path, &out->rack_size);
  }

  void ParseFaults(const JsonValue& obj, const ClusterSpec& cluster,
                   FaultConfig* out) {
    const std::string path = "faults";
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path,
              {"plan", "task_failure_prob", "checkpoint_period_s"});
    std::string plan;
    ReadString(obj, "plan", path, &plan);
    if (!plan.empty()) {
      std::string expanded;
      std::string error;
      if (!ExpandRackReferences(plan, cluster, &expanded, &error)) {
        Error(*obj.Find("plan"), path + ".plan", error);
      } else if (!ParseFaultPlan(expanded, &out->plan, &error)) {
        Error(*obj.Find("plan"), path + ".plan", error);
      }
    }
    ReadDouble(obj, "task_failure_prob", path, &out->task_failure_prob);
    ReadDouble(obj, "checkpoint_period_s", path, &out->checkpoint_period_s);
  }

  void ParseNetwork(const JsonValue& obj, NetworkConfig* out) {
    const std::string path = "network";
    if (!CheckObject(obj, path)) {
      return;
    }
    CheckKeys(obj, path, {"model", "nic_bps", "oversubscription"});
    ReadName(obj, "model", path, "network model", "flat, topology, contention",
             NetworkModelName, ParseNetworkModelName, &out->model);
    ReadDouble(obj, "nic_bps", path, &out->nic_bps);
    if (const JsonValue* v = obj.Find("nic_bps")) {
      if (!(std::isfinite(out->nic_bps) && out->nic_bps > 0.0)) {
        Error(*v, path + ".nic_bps", "must be a finite number > 0");
      }
    }
    ReadDouble(obj, "oversubscription", path, &out->oversubscription);
    if (const JsonValue* v = obj.Find("oversubscription")) {
      if (!(std::isfinite(out->oversubscription) &&
            out->oversubscription >= 1.0)) {
        Error(*v, path + ".oversubscription",
              "must be >= 1 (1 = non-blocking fabric)");
      }
    }
  }

  void ParseKnobs(const JsonValue& obj, bool v1, SimulatorConfig* out) {
    const std::string path = "knobs";
    if (!CheckObject(obj, path)) {
      return;
    }
    std::vector<std::string> allowed = {"interval_s", "stragglers", "oracle",
                                        "background_share", "audit",
                                        "max_sim_time_s", "engine"};
    if (v1) {
      // scenario-v1 also had shards and streaming, which set nothing the
      // simulator reads. A v1 file still loads; its two keys are dropped
      // here, unread.
      allowed.insert(allowed.end(), {"shards", "streaming"});
    }
    CheckKeys(obj, path, allowed);
    ReadDouble(obj, "interval_s", path, &out->interval_s);
    ReadDouble(obj, "stragglers", path,
               &out->straggler.injection_prob_per_interval);
    ReadBool(obj, "oracle", path, &out->oracle_estimates);
    ReadDouble(obj, "background_share", path, &out->background_share);
    ReadBool(obj, "audit", path, &out->audit);
    ReadDouble(obj, "max_sim_time_s", path, &out->max_sim_time_s);
    std::string engine;
    ReadString(obj, "engine", path, &engine);
    if (!engine.empty() && !ParseSimEngine(engine, &out->engine)) {
      Error(*obj.Find("engine"), path + ".engine",
            "expected \"interval\" or \"events\", got \"" + engine + "\"");
    }
  }

  bool Parse(const JsonValue& root, ScenarioSpec* spec) {
    if (!root.is_object()) {
      Error(root, "scenario",
            std::string("expected a top-level object, got ") +
                JsonTypeName(root.type()));
      return false;
    }
    CheckKeys(root, "scenario",
              {"schema", "name", "description", "seed", "repeats", "policy",
               "policies", "workload", "jobs", "cluster", "network", "faults",
               "knobs"});
    const JsonValue* schema = root.Find("schema");
    const std::string version =
        schema != nullptr && schema->is_string() ? schema->AsString() : "";
    const bool v1 = version == kScenarioSchemaV1;
    if (schema == nullptr) {
      Error(root, "schema", std::string("missing (expected \"") +
                                kScenarioSchemaVersion + "\")");
    } else if (version != kScenarioSchemaVersion && !v1) {
      Error(*schema, "schema",
            std::string("expected \"") + kScenarioSchemaVersion +
                "\" (or the older \"" + kScenarioSchemaV1 + "\")");
    }
    ReadString(root, "name", "scenario", &spec->name);
    if (root.Find("name") == nullptr) {
      Error(root, "name", "missing (scenarios must be named)");
    }
    ReadString(root, "description", "scenario", &spec->description);
    int64_t seed = static_cast<int64_t>(spec->seed);
    ReadInt(root, "seed", "scenario", &seed);
    if (seed < 0) {
      Error(*root.Find("seed"), "scenario.seed", "must be >= 0");
    } else {
      spec->seed = static_cast<uint64_t>(seed);
    }
    ReadIntField(root, "repeats", "scenario", &spec->repeats);
    const JsonValue* policy = root.Find("policy");
    const JsonValue* policies = root.Find("policies");
    if (policy != nullptr && policies != nullptr) {
      Error(*policy, "scenario.policy",
            "give either policy or policies, not both");
    } else if (policy != nullptr) {
      std::string name;
      ReadString(root, "policy", "scenario", &name);
      if (!name.empty()) {
        spec->policies = {name};
      }
    } else if (policies != nullptr) {
      if (!policies->is_array()) {
        Error(*policies, "scenario.policies",
              "expected an array of policy names");
      } else {
        spec->policies.clear();
        for (const JsonValue& v : policies->AsArray()) {
          if (!v.is_string()) {
            Error(v, "scenario.policies",
                  std::string("expected a string, got ") + JsonTypeName(v.type()));
            continue;
          }
          spec->policies.push_back(v.AsString());
        }
      }
    } else {
      Error(root, "scenario.policies",
            "missing (give policy: \"<name>\" or policies: [...])");
    }

    // Knobs and cluster come before workload/faults: the workload inherits
    // the scheduling interval and the fault plan expands racks.
    if (const JsonValue* v = root.Find("knobs")) {
      ParseKnobs(*v, v1, &spec->sim);
    }
    if (const JsonValue* v = root.Find("cluster")) {
      ParseCluster(*v, &spec->cluster);
    }
    if (const JsonValue* v = root.Find("network")) {
      ParseNetwork(*v, &spec->sim.net);
    }
    spec->workload.arrivals.interval_s = spec->sim.interval_s;
    const JsonValue* workload = root.Find("workload");
    if (const JsonValue* jobs = root.Find("jobs"); jobs != nullptr && workload != nullptr) {
      Error(*jobs, "scenario.jobs", "give either jobs or workload, not both");
    } else if (jobs != nullptr) {
      ParseJobs(*jobs, &spec->jobs);
      spec->workload.num_jobs = static_cast<int>(spec->jobs.size());
    } else if (workload != nullptr) {
      ParseWorkload(*workload, &spec->workload);
    }
    if (const JsonValue* v = root.Find("faults")) {
      ParseFaults(*v, spec->cluster, &spec->sim.fault);
    }
    return ok();
  }

 private:
  std::string source_;
  std::vector<std::string> errors_;
};

}  // namespace

bool ParseScenario(const std::string& text, const std::string& source_name,
                   ScenarioSpec* spec, std::string* error) {
  OPTIMUS_CHECK(spec != nullptr);
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(text, source_name, &root, &parse_error)) {
    if (error != nullptr) {
      *error = parse_error;
    }
    return false;
  }
  ScenarioSpec parsed;
  // The scenario default matches the CLI default, not the library default:
  // testbed conditions with stragglers Optimus is built to handle.
  parsed.sim.straggler.injection_prob_per_interval = 0.12;
  ScenarioParser parser(source_name);
  if (!parser.Parse(root, &parsed)) {
    if (error != nullptr) {
      *error = parser.JoinedErrors();
    }
    return false;
  }
  std::vector<std::string> validation;
  if (!parsed.Validate(&validation)) {
    if (error != nullptr) {
      std::string joined;
      for (const std::string& e : validation) {
        joined += (joined.empty() ? "" : "; ") + e;
      }
      *error = source_name + ": " + joined;
    }
    return false;
  }
  *spec = std::move(parsed);
  return true;
}

bool LoadScenarioFile(const std::string& path, ScenarioSpec* spec,
                      std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) {
      *error = "cannot read " + path;
    }
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseScenario(text.str(), path, spec, error);
}

}  // namespace optimus
