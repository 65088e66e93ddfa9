// Workload definitions, input generation and the timed runners of the ledger.

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "bench/ledger/ledger.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/models/model_zoo.h"
#include "src/obs/exporters.h"
#include "src/service/session.h"
#include "src/sim/fault_injector.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

namespace ledger {

namespace {

using namespace optimus;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, T v) {
  return Fnv(h, &v, sizeof(v));
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  return Fnv(FnvValue(h, s.size()), s.data(), s.size());
}

// The spec fields that define a job: id, arrival, model, mode, dataset scale
// and convergence threshold.
uint64_t HashSpecs(uint64_t h, const std::vector<JobSpec>& specs) {
  for (const JobSpec& s : specs) {
    h = FnvValue(h, static_cast<int64_t>(s.id));
    h = FnvValue(h, s.arrival_time_s);
    h = FnvString(h, s.model->name);
    h = FnvValue(h, static_cast<int32_t>(s.mode));
    h = FnvValue(h, s.dataset_scale);
    h = FnvValue(h, s.convergence_delta);
  }
  return h;
}

SimulatorConfig MakeConfig(const SimShape& shape, uint64_t seed, int threads) {
  SimulatorConfig config;
  config.seed = seed;
  config.threads = threads;
  config.engine = shape.engine;
  config.audit = true;
  config.max_sim_time_s = shape.horizon_intervals * kIntervalS;
  if (shape.faults_and_loss_feed) {
    std::string error;
    OPTIMUS_CHECK(ParseFaultPlan(
        "crash@1800:server=2,recover=9000;slow@2400:factor=0.8,duration=1800",
        &config.fault.plan, &error))
        << error;
    config.fault.task_failure_prob = 0.005;
    config.fault.checkpoint_period_s = 3600.0;
    config.conv_samples_per_interval = 300;
    config.conv_fit_points = 16384;
  }
  if (shape.contention) {
    config.rack_size = 32;
    config.net.model = NetworkConfig::Model::kContention;
    config.net.nic_bps = 125e6;
    config.net.oversubscription = 4.0;
  }
  config.streaming = shape.streaming;
  config.trace_hash_only = shape.streaming;
  config.shards = shape.shards;
  return config;
}

std::vector<Server> BuildCluster(const SimShape& shape) {
  return BuildUniformCluster(shape.servers, Resources(16, 80, 0, 1));
}

std::string GenesisScenario(const ServeShape& shape, uint64_t seed) {
  std::ostringstream os;
  os << R"({"schema": "scenario-v1", "name": "ledger_serve", "seed": )" << seed
     << R"(, "repeats": 1, "policies": ["optimus"], "workload": {"jobs": )"
     << shape.jobs << R"(, "arrivals": {"kind": "uniform", "window_s": )"
     << shape.arrival_window_s
     << R"(}, "sizes": {"kind": "zoo"}}, "cluster": {"classes": [{"name": "std", "count": )"
     << shape.servers
     << R"(, "cpu": 16, "memory_gb": 80, "gpu": 0, "bandwidth_gbps": 1}], "rack_size": )"
     << shape.rack_size << R"(}, "knobs": {"engine": "events"}})";
  return os.str();
}

// The serve request mix, exact in every block of 100 requests and shuffled
// within it: 40 what_if, 40 advance to an absolute time advance_step_s past
// the previous target, one submit+kill pair, 18 metrics_snapshot (every 4th
// in Prometheus format). Exact shares keep the latency percentiles from
// jumping between the advance and what_if modes from seed to seed. Absolute
// targets, because `advance dt_s` does not move now_s past the last event on
// the events engine. Every request is valid, so every response must be ok.
void GenerateRequests(const ServeShape& shape, uint64_t seed, Inputs* in) {
  enum Slot { kWhatIf, kAdvance, kPair, kSnapshot };
  std::vector<Slot> block;
  block.insert(block.end(), 40, kWhatIf);
  block.insert(block.end(), 40, kAdvance);
  block.insert(block.end(), 1, kPair);
  block.insert(block.end(), 18, kSnapshot);

  Rng rng(seed ^ 0x5e17eULL);
  const std::vector<ModelSpec>& zoo = GetModelZoo();
  auto model = [&]() -> const std::string& {
    return zoo[static_cast<size_t>(
                   rng.UniformInt(0, static_cast<int64_t>(zoo.size()) - 1))]
        .name;
  };
  auto add = [in](const std::string& op, std::string line) {
    in->request_ops.push_back(op);
    in->requests.push_back(std::move(line));
  };
  double to_s = 0.0;
  int next_id = 1000000;
  int snapshots = 0;
  while (static_cast<int>(in->requests.size()) < shape.requests) {
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[static_cast<size_t>(
                              rng.UniformInt(0, static_cast<int64_t>(i)))]);
    }
    for (const Slot slot : block) {
      if (slot == kWhatIf) {
        add("what_if", R"({"op":"what_if","model":")" + model() + "\"}");
      } else if (slot == kAdvance) {
        to_s += shape.advance_step_s;
        std::ostringstream os;
        os << R"({"op":"advance","to_s":)" << to_s << "}";
        add("advance", os.str());
      } else if (slot == kPair) {
        const int id = next_id++;
        add("submit", R"({"op":"submit","model":")" + model() +
                          R"(","job_id":)" + std::to_string(id) + "}");
        add("kill", R"({"op":"kill","job_id":)" + std::to_string(id) + "}");
      } else {
        add("metrics_snapshot", ++snapshots % 4 == 0
                                    ? R"({"op":"metrics_snapshot","format":"prom"})"
                                    : R"({"op":"metrics_snapshot"})");
      }
    }
  }
}

// A registry counter's value; 0 when it is not registered (the optimus_net_*
// counters under the flat fabric).
double CounterValue(const MetricsRegistry& registry, const char* name) {
  const Metric* m = registry.Find(name);
  return m != nullptr && m->kind() == MetricKind::kCounter
             ? static_cast<const Counter*>(m)->value()
             : 0.0;
}

// Registry counters the ledger reports, by ledger metric name.
constexpr std::pair<const char*, const char*> kCounters[] = {
    {"sim.events_processed", "optimus_events_processed_total"},
    {"sim.audit_checks", "optimus_audit_checks_total"},
    {"sched.speed_probes", "optimus_speed_probes_total"},
    {"sched.speed_evals", "optimus_speed_evals_total"},
    {"sched.alloc_pops", "optimus_alloc_pops_total"},
    {"sched.alloc_grants", "optimus_alloc_grants_total"},
    {"sched.stale_drops", "optimus_alloc_stale_drops_total"},
    {"sched.unfittable_drops", "optimus_alloc_unfittable_drops_total"},
    {"sched.shard_local_grants", "optimus_shard_local_grants_total"},
    {"sched.shard_migrated_tasks", "optimus_shard_migrated_tasks_total"},
    {"perfmodel.conv_fits", "optimus_conv_fits_total"},
    {"perfmodel.conv_fit_hits", "optimus_conv_fit_cache_hits_total"},
    {"perfmodel.conv_nnls_iters", "optimus_conv_nnls_iterations_total"},
    {"perfmodel.speed_fits", "optimus_speedmodel_fits_total"},
    {"perfmodel.speed_fit_hits", "optimus_speedmodel_fit_cache_hits_total"},
    {"perfmodel.speed_nnls_iters", "optimus_speedmodel_nnls_iterations_total"},
    {"net.solves", "optimus_net_solves_total"},
    {"net.flows", "optimus_net_flows_total"},
    {"net.contended_flows", "optimus_net_contended_flows_total"},
};

// The program's own phase totals and counters at one instant.
std::vector<std::pair<std::string, double>> ReadProgram(const Simulator& sim) {
  const RunMetrics& m = sim.metrics();
  std::vector<std::pair<std::string, double>> out = {
      {"sim.step_s", m.wall_advance_s + m.wall_events_s},
      {"sim.faults_s", m.wall_faults_s},
      {"sim.audit_s", m.wall_audit_s},
      {"sched.schedule_s", m.wall_schedule_s},
  };
  for (const auto& [name, registry_name] : kCounters) {
    out.emplace_back(name, CounterValue(sim.registry(), registry_name));
  }
  return out;
}

std::vector<std::pair<std::string, double>> Delta(
    const std::vector<std::pair<std::string, double>>& before,
    const std::vector<std::pair<std::string, double>>& after) {
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < after.size(); ++i) {
    const double d = after[i].second - before[i].second;
    if (d != 0.0) {
      out.emplace_back(after[i].first, d);
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Final per-layer values of a traced run: phase totals, counters, and the
// ratios derived from them.
void FinishLayers(const Simulator& sim, Run* run) {
  for (const auto& [name, value] : ReadProgram(sim)) {
    run->layers[name] = value;
  }
  std::map<std::string, double>& l = run->layers;
  l["sim.materialized_jobs"] = sim.materialized_jobs();
  l["sim.trace_records"] = static_cast<double>(sim.trace().size());
  l["sched.surface_hit_ratio"] =
      l["sched.speed_probes"] > 0.0
          ? 1.0 - l["sched.speed_evals"] / l["sched.speed_probes"]
          : 0.0;
  l["sched.grant_ratio"] = Ratio(l["sched.alloc_grants"], l["sched.alloc_pops"]);
  // Share of Fit() calls the dirty-flag cache answered without a solve.
  l["perfmodel.conv_fit_hit_ratio"] =
      Ratio(l["perfmodel.conv_fit_hits"],
            l["perfmodel.conv_fits"] + l["perfmodel.conv_fit_hits"]);
  l["perfmodel.speed_fit_hit_ratio"] =
      Ratio(l["perfmodel.speed_fit_hits"],
            l["perfmodel.speed_fits"] + l["perfmodel.speed_fit_hits"]);
  l["net.contended_ratio"] = Ratio(l["net.contended_flows"], l["net.flows"]);
}

// Records a finished run's outcome: the JCT, the completed jobs, and the
// output digest, which folds the event trace and completed-job count into
// `digest`. A violation the calls did not already count is one failure.
void FinishRun(const Simulator& sim, const RunMetrics& m, uint64_t digest,
               bool traced, Run* run) {
  run->avg_jct_s = m.avg_jct_s;
  run->completed_jobs = m.completed_jobs;
  digest = FnvValue(digest, sim.trace().digest());
  digest = FnvValue(digest, static_cast<uint64_t>(sim.trace().size()));
  run->output_digest = FnvValue(digest, static_cast<int64_t>(m.completed_jobs));
  if (m.audit_violations > 0 && run->failed == 0) {
    ++run->failed;
  }
  if (traced) {
    FinishLayers(sim, run);
  }
}

Run RunSim(const Workload& w, uint64_t seed, int threads, bool traced) {
  const SimulatorConfig config = MakeConfig(w.sim, seed, threads);
  std::vector<JobSpec> specs = GenerateInputs(w, seed).specs;
  // WhatIf candidates: generated specs under an id no job has.
  constexpr int kProbeJobId = 1 << 30;
  std::vector<JobSpec> candidates(specs.begin(),
                                  specs.begin() + std::min<size_t>(specs.size(), 16));
  for (JobSpec& c : candidates) {
    c.id = kProbeJobId;
  }
  Run run;
  const Clock::time_point origin = Clock::now();
  auto span = [&](const char* name, Clock::time_point start, double dur,
                  std::vector<std::pair<std::string, double>> args = {}) {
    if (traced) {
      run.spans.push_back({name, std::chrono::duration<double>(start - origin).count(),
                           dur, std::move(args)});
    }
  };

  Simulator sim(config, BuildCluster(w.sim), std::move(specs));
  run.setup_s = Since(origin);
  ++run.attempted;
  span("Simulator", origin, run.setup_s);

  ExportOptions export_options;
  export_options.include_profiling = false;
  std::vector<std::pair<std::string, double>> program;
  if (traced) {
    program = ReadProgram(sim);
  }

  const Clock::time_point loop_start = Clock::now();
  for (int k = 1; k <= w.sim.horizon_intervals; ++k) {
    const double clock_before = sim.now_s();
    const int64_t violations_before = sim.metrics().audit_violations;
    run.probe_s.push_back(ProbeSeconds());
    const Clock::time_point start = Clock::now();
    sim.AdvanceTo(k * kIntervalS);
    const double dur = Since(start);
    run.call_s.push_back(dur);
    run.sampled.push_back(sim.now_s() > clock_before);
    ++run.attempted;
    if (sim.metrics().audit_violations > violations_before) {
      ++run.failed;
    }
    if (!traced) {
      continue;
    }
    std::vector<std::pair<std::string, double>> now = ReadProgram(sim);
    span("sim.advance", start, dur, Delta(program, now));
    program = std::move(now);
    if (k % 10 != 0) {
      continue;
    }
    JobSpec candidate = candidates[static_cast<size_t>(k / 10) % candidates.size()];
    candidate.arrival_time_s = sim.now_s();
    Clock::time_point s = Clock::now();
    sim.WhatIf(candidate);
    span("sched.whatif", s, Since(s));
    ++run.attempted;
    s = Clock::now();
    const std::string report = ExportJsonReportString(
        sim.registry(), &sim.series(), &sim.flight_recorder(), export_options);
    span("obs.report", s, Since(s), {{"bytes", static_cast<double>(report.size())}});
    s = Clock::now();
    const std::string prom = ExportPrometheusString(sim.registry(), export_options);
    span("obs.prom", s, Since(s), {{"bytes", static_cast<double>(prom.size())}});
    run.attempted += 2;
  }
  run.probe_s.push_back(ProbeSeconds());
  const Clock::time_point run_start = Clock::now();
  const RunMetrics metrics = sim.Run();
  const double run_dur = Since(run_start);
  span("sim.run", run_start, run_dur);
  run.call_s.push_back(run_dur);
  run.sampled.push_back(false);
  ++run.attempted;
  run.sim_s = w.sim.horizon_intervals * kIntervalS;
  run.elapsed_s = Since(loop_start);
  FinishRun(sim, metrics, kFnvBasis, traced, &run);
  return run;
}

Run RunServe(const Workload& w, uint64_t seed, int threads, bool traced) {
  const Inputs in = GenerateInputs(w, seed);
  Run run;
  SessionOverrides overrides;
  overrides.threads = threads;
  std::string error;
  const Clock::time_point origin = Clock::now();
  std::unique_ptr<ServiceSession> session =
      ServiceSession::Create(in.genesis, "<ledger>", overrides, &error);
  run.setup_s = Since(origin);
  OPTIMUS_CHECK(session != nullptr) << error;
  ++run.attempted;
  if (traced) {
    run.spans.push_back({"ServiceSession::Create", 0.0, run.setup_s, {}});
  }

  uint64_t digest = kFnvBasis;
  run.probe_stride = 10;
  const Clock::time_point loop_start = Clock::now();
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const int64_t errors_before = session->errors();
    const int64_t violations_before =
        session->simulator().metrics().audit_violations;
    if (i % run.probe_stride == 0) {
      run.probe_s.push_back(ProbeSeconds());
    }
    const Clock::time_point start = Clock::now();
    const std::string response = session->HandleLine(in.requests[i], nullptr);
    const double dur = Since(start);
    run.call_s.push_back(dur);
    run.sampled.push_back(true);
    ++run.attempted;
    if (session->errors() > errors_before ||
        session->simulator().metrics().audit_violations > violations_before) {
      ++run.failed;
    }
    digest = FnvString(digest, response);
    if (!traced) {
      continue;
    }
    const std::string& op = in.request_ops[i];
    const char* name = op == "advance"    ? "sim.advance"
                       : op == "what_if"  ? "sched.whatif"
                       : op == "submit"   ? "service.submit"
                       : op == "kill"     ? "service.kill"
                       : in.requests[i].find("prom") != std::string::npos
                           ? "obs.prom"
                           : "obs.report";
    run.spans.push_back({name,
                         std::chrono::duration<double>(start - origin).count(),
                         dur,
                         {{"bytes", static_cast<double>(response.size())}}});
  }
  run.elapsed_s = Since(loop_start);
  Simulator& sim = session->simulator();
  run.sim_s = sim.now_s();
  // Finish the simulation outside the timed loop, for the JCT and digest.
  FinishRun(sim, sim.Run(), digest, traced, &run);
  return run;
}

}  // namespace

std::vector<Workload> Workloads(bool smoke) {
  std::vector<Workload> out;
  Workload w;

  w = Workload{};
  w.name = "interval-steady";
  w.threads = 4;
  w.run_s = smoke ? 0.5 : 3.5;
  w.sim.engine = SimEngine::kInterval;
  w.sim.jobs = smoke ? 200 : 4000;
  w.sim.servers = smoke ? 800 : 16000;
  w.sim.arrival_intervals = 100;
  w.sim.faults_and_loss_feed = true;
  w.input_hash = smoke ? 0 : 0x4409d0f85bdc3bfeULL;
  out.push_back(w);

  w = Workload{};
  w.name = "events-fabric";
  w.threads = 4;
  w.run_s = smoke ? 0.5 : 3.5;
  w.sim.jobs = smoke ? 500 : 10000;
  w.sim.servers = smoke ? 800 : 16000;
  w.sim.arrival_intervals = 100;
  w.sim.faults_and_loss_feed = true;
  w.sim.contention = true;
  w.input_hash = smoke ? 0 : 0x9a74acc654e93774ULL;
  out.push_back(w);

  w = Workload{};
  w.name = "sched-steady";
  w.threads = 4;
  w.run_s = smoke ? 0.5 : 3.6;
  w.sim.jobs = smoke ? 400 : 4000;
  w.sim.servers = smoke ? 800 : 16000;
  w.sim.arrival_intervals = 60;
  w.sim.target_steps_per_epoch = 200;
  w.input_hash = smoke ? 0 : 0xa4e866516007e8b3ULL;
  out.push_back(w);

  w = Workload{};
  w.name = "stream-1m";
  w.threads = 4;
  w.run_s = smoke ? 0.5 : 2.0;
  w.sim.jobs = smoke ? 50000 : 1000000;
  w.sim.servers = smoke ? 5000 : 100000;
  w.sim.arrival_intervals = smoke ? 750 : 15000;
  w.sim.streaming = true;
  w.sim.shards = 8;
  w.input_hash = smoke ? 0 : 0x17344fad15f56a4fULL;
  out.push_back(w);

  w = Workload{};
  w.name = "serve";
  w.threads = 1;
  w.run_s = smoke ? 0.5 : 4.2;
  w.serve = true;
  w.service.jobs = smoke ? 200 : 4000;
  w.service.arrival_window_s = smoke ? 12000.0 : 120000.0;
  w.service.servers = smoke ? 128 : 256;
  w.service.rack_size = 16;
  w.service.requests = smoke ? 400 : 3000;
  w.service.advance_step_s = 120.0;
  w.input_hash = smoke ? 0 : 0x055831c5000120afULL;
  out.push_back(w);

  return out;
}

Inputs GenerateInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  if (!w.serve) {
    WorkloadConfig config;
    config.num_jobs = w.sim.jobs;
    config.arrival_window_s = w.sim.arrival_intervals * kIntervalS;
    config.target_steps_per_epoch = w.sim.target_steps_per_epoch;
    Rng rng(seed ^ 0x5eedULL);
    in.specs = GenerateWorkload(config, &rng);
    return in;
  }
  in.genesis = GenesisScenario(w.service, seed);
  GenerateRequests(w.service, seed, &in);
  return in;
}

uint64_t HashInputs(const Inputs& in) {
  if (in.genesis.empty()) {
    return HashSpecs(kFnvBasis, in.specs);
  }
  // The session generates its jobs from the genesis itself; they are hashed
  // from the same scenario so that a generator change shows up.
  ScenarioSpec scenario;
  std::string error;
  OPTIMUS_CHECK(ParseScenario(in.genesis, "<ledger>", &scenario, &error)) << error;
  uint64_t h = HashSpecs(kFnvBasis, scenario.JobsForRepeat(0));
  for (const std::string& line : in.requests) {
    h = FnvString(h, line);
  }
  return h;
}

double TimeSetup(const Workload& w, uint64_t seed, int threads) {
  if (w.serve) {
    const Inputs in = GenerateInputs(w, seed);
    SessionOverrides overrides;
    overrides.threads = threads;
    std::string error;
    const Clock::time_point start = Clock::now();
    std::unique_ptr<ServiceSession> session =
        ServiceSession::Create(in.genesis, "<ledger>", overrides, &error);
    const double setup_s = Since(start);
    OPTIMUS_CHECK(session != nullptr) << error;
    return setup_s;
  }
  const SimulatorConfig config = MakeConfig(w.sim, seed, threads);
  std::vector<JobSpec> specs = GenerateInputs(w, seed).specs;
  const Clock::time_point start = Clock::now();
  Simulator sim(config, BuildCluster(w.sim), std::move(specs));
  return Since(start);
}

double ProbeSeconds() {
  static const std::vector<uint32_t> input = [] {
    std::vector<uint32_t> v(4096);
    uint64_t x = 88172645463325252ULL;  // xorshift64
    for (uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<uint32_t>(x);
    }
    return v;
  }();
  static std::vector<uint32_t> sorted(input.size());
  double shortest = 0.0;
  for (int i = 0; i < 4; ++i) {
    std::copy(input.begin(), input.end(), sorted.begin());  // warms the cache
    const Clock::time_point start = Clock::now();
    std::sort(sorted.begin(), sorted.end());
    const double t = Since(start);
    shortest = i == 0 ? t : std::min(shortest, t);
  }
  return shortest;
}

Run RunOnce(const Workload& w, uint64_t seed, int threads, bool traced) {
  return w.serve ? RunServe(w, seed, threads, traced)
                 : RunSim(w, seed, threads, traced);
}

}  // namespace ledger
