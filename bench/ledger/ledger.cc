// optimus_ledger: one benchmark for the simulator and the service.
//
//   optimus_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//       Runs one workload in this process: it sets up several times, then
//       runs the workload as many times as its nominal run time fits in S
//       seconds (at least once), checks the outputs, prints every metric by
//       name and unit, and ends with one JSON line
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
//       with --trace 0, the per-layer metrics of traced reruns with
//       --trace 1. Exits 3 when an output check fails.
//
//   optimus_ledger [--repeat N] [--seed N] [--seconds S] [--trace 0|1]
//       Runs every workload in a child process of its own (so each peak RSS
//       is that workload's own), N interleaved passes, and prints each
//       metric's median and interquartile range.
//
//   optimus_ledger --threads 1,2,4
//       Thread-scaling curves of the multi-threaded workloads. A canonical
//       workload's thread count never changes otherwise.
//
// Other flags: --smoke (same code paths, small sizes), --trace-dir DIR
// (write each traced run as Chrome trace-event JSON to DIR/<workload>.json).
//
// README.md in this directory defines the workloads and every metric.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/ledger/ledger.h"
#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/stats.h"
#include "src/workload/json.h"

namespace ledger {
namespace {

using Clock = std::chrono::steady_clock;
using optimus::Median;
using optimus::PeakRssMib;
using optimus::Percentile;
using optimus::Sum;

// Interquartile range as a share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (its default exclusive method), so that
// --repeat and noise.py report the same spread. Needs at least two values.
double IqrShare(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  auto cut = [&](int i) {  // the i-th of the three quartile cut points
    const int j = std::clamp(i * (n + 1) / 4, 1, n - 1);
    const int delta = i * (n + 1) - j * 4;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  };
  const double median = cut(2);
  return median != 0.0 ? (cut(3) - cut(1)) / median : 0.0;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported on every workload (README.md defines them).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_s_per_wall_s", "sim-s/s"},
    {"call_p50_ms", "ms"},
    {"call_p90_ms", "ms"},
    {"peak_rss_mib", "MiB"},
    {"avg_jct_s", "s"},
};

// Per-layer metrics of the traced run, named after src/ modules.
constexpr MetricDef kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"sim.step_s", "s"},
    {"sim.faults_s", "s"},
    {"sim.audit_s", "s"},
    {"sim.advance_p50_us", "us"},
    {"sim.advance_busy_s", "s"},
    {"sim.events_processed", "count"},
    {"sim.audit_checks", "count"},
    {"sim.materialized_jobs", "count"},
    {"sim.trace_records", "count"},
    {"sched.schedule_s", "s"},
    {"sched.whatif_p50_us", "us"},
    {"sched.whatif_busy_s", "s"},
    {"sched.speed_probes", "count"},
    {"sched.speed_evals", "count"},
    {"sched.surface_hit_ratio", "ratio"},
    {"sched.alloc_pops", "count"},
    {"sched.alloc_grants", "count"},
    {"sched.grant_ratio", "ratio"},
    {"sched.stale_drops", "count"},
    {"sched.unfittable_drops", "count"},
    {"sched.shard_local_grants", "count"},
    {"sched.shard_migrated_tasks", "count"},
    {"perfmodel.conv_fits", "count"},
    {"perfmodel.conv_fit_hit_ratio", "ratio"},
    {"perfmodel.conv_nnls_iters", "count"},
    {"perfmodel.speed_fits", "count"},
    {"perfmodel.speed_fit_hit_ratio", "ratio"},
    {"perfmodel.speed_nnls_iters", "count"},
    {"net.solves", "count"},
    {"net.flows", "count"},
    {"net.contended_ratio", "ratio"},
    {"obs.snapshot_p50_us", "us"},
    {"obs.snapshot_busy_s", "s"},
    {"obs.report_bytes_mean", "bytes"},
    {"obs.prom_bytes_mean", "bytes"},
    {"ledger.trace_overhead_frac", "ratio"},
};

// Setups timed on their own before the measured runs (each run's own
// construction is a further sample).
constexpr int kSetupSamples = 9;

// ProbeSeconds() on the reference machine (the 4-core Xeon in README.md)
// when its virtual CPU runs at full speed.
constexpr double kProbeRefS = 190e-6;

// A call's host speed is the median of the probes within this many probes
// of it, so that one probe caught by an interrupt does not set it.
constexpr size_t kProbeWindow = 8;

bool IsTime(const std::string& unit) { return unit == "s" || unit == "us"; }

// The run's call times at the reference speed: each is scaled by kProbeRefS
// over the median of the host-speed probes taken around it.
std::vector<double> AtReferenceSpeed(const Run& run) {
  std::vector<double> out(run.call_s.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t j = std::min(i / run.probe_stride, run.probe_s.size() - 1);
    const auto first = run.probe_s.begin() + (j > kProbeWindow ? j - kProbeWindow : 0);
    const auto last = run.probe_s.begin() + std::min(j + kProbeWindow + 1, run.probe_s.size());
    out[i] = run.call_s[i] * kProbeRefS / Median(std::vector<double>(first, last));
  }
  return out;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Per-call statistics of a traced run's spans, grouped by span name.
std::map<std::string, std::vector<double>> DurationsByName(const Run& run) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : run.spans) {
    out[s.name].push_back(s.dur_s);
  }
  return out;
}

double MeanBytes(const Run& run, const std::string& name) {
  double sum = 0.0;
  int n = 0;
  for (const Span& s : run.spans) {
    if (s.name != name) continue;
    for (const auto& [key, value] : s.args) {
      if (key == "bytes") {
        sum += value;
        ++n;
      }
    }
  }
  return n > 0 ? sum / n : 0.0;
}

// Adds the span-derived per-layer values of one traced run.
void AddSpanLayers(Run* run) {
  std::map<std::string, std::vector<double>> d = DurationsByName(*run);
  std::vector<double> snapshot = d["obs.report"];
  snapshot.insert(snapshot.end(), d["obs.prom"].begin(), d["obs.prom"].end());
  std::map<std::string, double>& l = run->layers;
  l["sim.advance_p50_us"] = Median(d["sim.advance"]) * 1e6;
  l["sim.advance_busy_s"] = Sum(d["sim.advance"]);
  l["sched.whatif_p50_us"] = Median(d["sched.whatif"]) * 1e6;
  l["sched.whatif_busy_s"] = Sum(d["sched.whatif"]);
  l["obs.snapshot_p50_us"] = Median(snapshot) * 1e6;
  l["obs.snapshot_busy_s"] = Sum(snapshot);
  l["obs.report_bytes_mean"] = MeanBytes(*run, "obs.report");
  l["obs.prom_bytes_mean"] = MeanBytes(*run, "obs.prom");
}

void WriteChromeTrace(const std::string& path, const std::string& workload,
                      const std::vector<Run>& traced) {
  std::vector<optimus::JsonObject> events(1);
  events[0].Set("name", "process_name");
  events[0].Set("ph", "M");
  events[0].Set("pid", 1);
  optimus::JsonObject process;
  process.Set("name", workload);
  events[0].Set("args", process);
  for (size_t r = 0; r < traced.size(); ++r) {
    for (const Span& s : traced[r].spans) {
      optimus::JsonObject e;
      e.Set("name", s.name);
      e.Set("cat", s.name.substr(0, s.name.find('.')));
      e.Set("ph", "X");
      e.Set("ts", s.start_s * 1e6);
      e.Set("dur", s.dur_s * 1e6);
      e.Set("pid", 1);
      e.Set("tid", static_cast<int64_t>(r + 1));
      optimus::JsonObject args;
      for (const auto& [key, value] : s.args) {
        args.Set(key, value);
      }
      e.Set("args", args);
      events.push_back(e);
    }
  }
  optimus::JsonObject root;
  root.Set("traceEvents", events);
  std::ofstream out(path);
  out << root.ToCompactString() << "\n";
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
  }
}

struct Options {
  uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  bool all_metrics = false;
  std::string trace_dir;
};

// Runs one workload in this process; returns the exit code.
int RunWorkload(const Workload& w, int threads, const Options& opt) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::cout << "== " << w.name << "  seed " << opt.seed << ", " << threads
            << " thread(s), nproc " << nproc << (opt.smoke ? ", smoke" : "")
            << "\n";
  if (nproc < static_cast<unsigned>(threads)) {
    std::cerr << "warning: " << w.name << " runs " << threads
              << " threads on " << nproc << " cores\n";
  }
  std::vector<std::string> failures;

  double generate_s = 0.0;
  {
    const Clock::time_point start = Clock::now();
    const Inputs in = GenerateInputs(w, opt.seed);
    generate_s = std::chrono::duration<double>(Clock::now() - start).count();
    const uint64_t hash = HashInputs(in);
    std::cout << "inputs         hash " << Hex(hash) << ", generated in "
              << generate_s << " s\n";
    if (opt.seed == kDefaultSeed && w.input_hash != 0 && hash != w.input_hash) {
      failures.push_back("input hash " + Hex(hash) + " != recorded " +
                         Hex(w.input_hash) + " at the default seed");
    }
  }

  // End-to-end times are at the reference speed (see ProbeSeconds): a
  // set-up is scaled by the probe taken just before it, a run's set-up by
  // the probe taken just after it.
  std::vector<double> setups;
  std::vector<double> setups_measured;
  for (int i = 0; i < kSetupSamples; ++i) {
    const double probe = ProbeSeconds();
    setups_measured.push_back(TimeSetup(w, opt.seed, threads));
    setups.push_back(setups_measured.back() * kProbeRefS / probe);
  }

  // Untraced runs give the end-to-end metrics; with --trace each is paired
  // with a traced rerun, which gives the per-layer metrics. The number of
  // runs comes from the workload's nominal run time, not from the clock, so
  // faster code does not get more samples than slower code.
  const int run_count = std::max(
      1, static_cast<int>(opt.seconds / (w.run_s * (opt.trace ? 2.0 : 1.0))));
  std::vector<Run> plain;
  std::vector<Run> traced;
  std::vector<double> run_totals;  // whole untraced runs, generation included
  for (int i = 0; i < run_count; ++i) {
    const Clock::time_point start = Clock::now();
    plain.push_back(RunOnce(w, opt.seed, threads, /*traced=*/false));
    run_totals.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    const Run& r = plain.back();
    setups_measured.push_back(r.setup_s);
    setups.push_back(r.setup_s * kProbeRefS / r.probe_s.front());
    if (opt.trace) {
      traced.push_back(RunOnce(w, opt.seed, threads, /*traced=*/true));
      AddSpanLayers(&traced.back());
    }
  }

  int64_t attempted = kSetupSamples;
  int64_t failed = 0;
  const Run& ref = plain.front();
  for (const std::vector<Run>* runs : {&plain, &traced}) {
    for (const Run& r : *runs) {
      attempted += r.attempted;
      failed += r.failed;
      if (r.output_digest != ref.output_digest || r.avg_jct_s != ref.avg_jct_s ||
          r.sampled != ref.sampled) {
        failures.push_back(std::string(runs == &plain ? "untraced" : "traced") +
                           " run diverged: digest " + Hex(r.output_digest) +
                           " vs " + Hex(ref.output_digest));
      }
    }
  }
  if (failed > 0) {
    failures.push_back(std::to_string(failed) +
                       " call(s) answered ok:false or broke an invariant");
  }

  // Every run of a seed makes the same sequence of calls, and noise from
  // the host only ever adds time. Each call's time is its minimum over the
  // untraced runs, whose number is fixed above: a stall of a few seconds
  // slows a stretch of one run, and another run is likely to have made the
  // same calls at full speed. Times are taken at the reference speed, so
  // that a slow period covering every run is divided out as well.
  std::vector<double> per_call = AtReferenceSpeed(ref);
  std::vector<double> per_call_measured = ref.call_s;
  for (const Run& r : plain) {
    const std::vector<double> at_ref = AtReferenceSpeed(r);
    for (size_t i = 0; i < per_call.size(); ++i) {
      per_call[i] = std::min(per_call[i], at_ref[i]);
      per_call_measured[i] = std::min(per_call_measured[i], r.call_s[i]);
    }
  }
  std::vector<double> calls;
  std::vector<double> calls_measured;
  for (size_t i = 0; i < per_call.size(); ++i) {
    if (!ref.sampled[i]) continue;
    calls.push_back(per_call[i]);
    calls_measured.push_back(per_call_measured[i]);
  }
  const double wall_s = Sum(per_call);
  std::map<std::string, double> values;
  values["setup_s"] = Median(setups);
  values["sim_s_per_wall_s"] = ref.sim_s / wall_s;
  values["call_p50_ms"] = Percentile(calls, 50.0) * 1e3;
  values["call_p90_ms"] = Percentile(calls, 90.0) * 1e3;
  values["peak_rss_mib"] = PeakRssMib();
  values["avg_jct_s"] = ref.avg_jct_s;

  std::cout << "runs           " << plain.size() << " untraced";
  if (opt.trace) std::cout << " + " << traced.size() << " traced";
  std::cout << ", " << calls.size() << " latency samples per run\nsetups (ms)   ";
  for (double s : setups_measured) std::cout << " " << s * 1e3;
  std::cout << "\nrun totals (s) ";
  for (double s : run_totals) std::cout << " " << s;
  std::cout << " (nominal " << w.run_s << ")\nrun walls (s)  ";
  for (const Run& r : plain) std::cout << " " << Sum(r.call_s);
  if (opt.trace) std::cout << " | traced";
  for (const Run& r : traced) std::cout << " " << Sum(r.call_s);
  std::cout << "\nhost slowdown  ";
  for (const Run& r : plain) std::cout << " " << Median(r.probe_s) / kProbeRefS;
  std::cout << " (median probe of each run over the reference)\nas measured    wall "
            << Sum(per_call_measured) << " s, call p50 "
            << Percentile(calls_measured, 50.0) * 1e3 << " ms, call p90 "
            << Percentile(calls_measured, 90.0) * 1e3 << " ms, setup "
            << Median(setups_measured) * 1e3 << " ms\nwall (s)       " << wall_s
            << " (sum of per-call minima at the reference speed)\n";
  if (w.serve) {
    std::cout << "service        " << ref.call_s.size() / wall_s << " req/s, p99 "
              << Percentile(calls, 99.0) * 1e6 << " us, p99.9 "
              << Percentile(calls, 99.9) * 1e6 << " us\n";
  }
  std::cout << "end to end\n";
  for (const MetricDef& m : kEndToEnd) {
    std::cout << "  " << std::left << std::setw(32) << m.name << std::right
              << std::setprecision(6) << values[m.name] << " " << m.unit << "\n";
  }

  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) {
      const std::string name = m.name;
      if (name == "workload.generate_s" || name == "ledger.trace_overhead_frac") {
        continue;
      }
      std::vector<double> samples;
      for (const Run& r : traced) {
        const auto it = r.layers.find(name);
        samples.push_back(it == r.layers.end() ? 0.0 : it->second);
      }
      if (!IsTime(m.unit) &&
          std::adjacent_find(samples.begin(), samples.end(),
                             std::not_equal_to<>()) != samples.end()) {
        failures.push_back("counter " + name + " did not repeat exactly");
      }
      values[name] = Median(samples);
    }
    auto median_elapsed = [](const std::vector<Run>& runs) {
      std::vector<double> elapsed;
      for (const Run& r : runs) elapsed.push_back(r.elapsed_s);
      return Median(elapsed);
    };
    values["workload.generate_s"] = generate_s;
    values["ledger.trace_overhead_frac"] =
        median_elapsed(traced) / median_elapsed(plain) - 1.0;

    std::cout << "per layer\n";
    for (const MetricDef& m : kPerLayer) {
      std::cout << "  " << std::left << std::setw(32) << m.name << std::right
                << std::setprecision(6) << values[m.name] << " " << m.unit
                << "\n";
    }
    std::cout << "spans (traced run 1)        calls      p50_us      p99_us"
                 "     busy_s\n";
    for (const auto& [name, d] : DurationsByName(traced.front())) {
      std::cout << "  " << std::left << std::setw(24) << name << std::right
                << std::setw(8) << d.size() << std::setw(12) << std::fixed
                << std::setprecision(1) << Percentile(d, 50.0) * 1e6
                << std::setw(12) << Percentile(d, 99.0) * 1e6 << std::setw(11)
                << std::setprecision(4) << Sum(d) << std::defaultfloat << "\n";
    }
    if (!opt.trace_dir.empty()) {
      WriteChromeTrace(opt.trace_dir + "/" + w.name + ".json", w.name, traced);
    }
  }

  std::cout << "output_digest  " << Hex(ref.output_digest) << " (completed "
            << ref.completed_jobs << ")\n";
  for (const std::string& f : failures) {
    std::cout << "CHECK FAILED   " << f << "\n";
  }
  std::cout << "checks         " << (failures.empty() ? "ok" : "FAILED") << "\n";

  optimus::JsonObject metrics;
  auto emit = [&](const MetricDef& m) {
    optimus::JsonObject v;
    v.Set("value", values[m.name]);
    v.Set("unit", m.unit);
    metrics.Set(m.name, v);
  };
  if (!opt.trace || opt.all_metrics) {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  }
  optimus::JsonObject result;
  result.Set("correct", failures.empty());
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", metrics);
  std::cout << result.ToCompactString() << std::endl;
  return failures.empty() ? 0 : 3;
}

// ---------------------------------------------------------------------------
// Multi-workload modes: one child process per workload run.
// ---------------------------------------------------------------------------

struct ChildResult {
  bool ok = false;
  std::map<std::string, double> metrics;
  std::string output_digest;
};

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : "optimus_ledger";
}

ChildResult RunChild(const std::string& args, bool echo) {
  std::string cmd = "'";
  cmd += SelfExe();
  cmd += "' ";
  cmd += args;
  ChildResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::cerr << "cannot start " << cmd << "\n";
    return result;
  }
  std::string last;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    const std::string line(buf);
    if (echo) std::cout << line;
    if (line.rfind("output_digest", 0) == 0) {
      std::istringstream fields(line);
      std::string key;
      fields >> key >> result.output_digest;
    }
    last = line;
  }
  const int status = pclose(pipe);
  optimus::JsonValue json;
  std::string error;
  const optimus::JsonValue* metrics = nullptr;
  const optimus::JsonValue* correct = nullptr;
  if (optimus::ParseJson(last, "<child>", &json, &error) && json.is_object()) {
    metrics = json.Find("metrics");
    correct = json.Find("correct");
  }
  if (metrics == nullptr || correct == nullptr) {
    std::cerr << "no result from: " << cmd << "\n";
    return result;
  }
  for (const std::string& name : metrics->Keys()) {
    result.metrics[name] = metrics->Find(name)->Find("value")->AsDouble();
  }
  result.ok = status == 0 && correct->AsBool();
  return result;
}

std::string ChildArgs(const std::string& workload, const Options& opt) {
  std::ostringstream os;
  os << "--workload=" << workload << " --seed=" << opt.seed
     << " --seconds=" << opt.seconds << " --trace=" << (opt.trace ? 1 : 0)
     << " --all-metrics";
  if (opt.smoke) os << " --smoke";
  if (!opt.trace_dir.empty()) os << " --trace-dir='" << opt.trace_dir << "'";
  return os.str();
}

std::string Unit(const std::string& name) {
  for (const MetricDef& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const MetricDef& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return "";
}

int RunPasses(const std::vector<Workload>& workloads, int repeat,
              const Options& opt) {
  std::map<std::string, std::map<std::string, std::vector<double>>> samples;
  std::map<std::string, std::vector<std::string>> digests;
  bool ok = true;
  for (int pass = 0; pass < repeat; ++pass) {
    for (const Workload& w : workloads) {
      const ChildResult r = RunChild(ChildArgs(w.name, opt), /*echo=*/repeat == 1);
      ok = ok && r.ok;
      if (!r.ok) {
        std::cerr << w.name << " pass " << pass + 1 << " failed\n";
      }
      for (const auto& [name, value] : r.metrics) {
        samples[w.name][name].push_back(value);
      }
      digests[w.name].push_back(r.output_digest);
    }
  }
  if (repeat == 1) {
    return ok ? 0 : 3;
  }
  std::cout << "\n" << repeat << " interleaved passes, seed " << opt.seed
            << ": median [IQR as a share of the median]\n";
  for (const Workload& w : workloads) {
    std::cout << "== " << w.name << "  output_digest " << digests[w.name][0]
              << "\n";
    for (const std::string& d : digests[w.name]) {
      if (d != digests[w.name][0]) {
        std::cout << "  OUTPUT DIGEST DIFFERS: " << d << "\n";
        ok = false;
      }
    }
    for (const auto& [name, v] : samples[w.name]) {
      const std::string unit = Unit(name);
      std::cout << "  " << std::left << std::setw(32) << name << std::right
                << std::setw(14) << std::setprecision(6) << Median(v) << " "
                << std::left << std::setw(8) << unit << std::right << " ["
                << std::setprecision(3) << IqrShare(v) << "]\n";
      const bool deterministic =
          name == "avg_jct_s" ||
          ((unit == "count" || unit == "bytes" || unit == "ratio") &&
           name != "ledger.trace_overhead_frac");
      if (deterministic && *std::min_element(v.begin(), v.end()) !=
                               *std::max_element(v.begin(), v.end())) {
        std::cout << "  ^ NOT IDENTICAL ACROSS PASSES\n";
        ok = false;
      }
    }
  }
  return ok ? 0 : 3;
}

int RunScaling(const std::vector<Workload>& workloads,
               const std::vector<int>& thread_counts, Options opt) {
  opt.trace = true;
  bool ok = true;
  std::cout << "workload           threads   wall_s  sim_s/wall_s  speedup"
               "  schedule_s  step_s  faults_s  audit_s\n";
  for (const Workload& w : workloads) {
    if (w.threads == 1) continue;
    double base_wall = 0.0;
    std::string base_digest;
    for (const int t : thread_counts) {
      const ChildResult r =
          RunChild(ChildArgs(w.name, opt) + " --threads=" + std::to_string(t),
                   /*echo=*/false);
      if (!r.ok) {
        std::cout << w.name << " at " << t << " threads failed\n";
        ok = false;
        continue;
      }
      const double wall = w.sim.horizon_intervals * kIntervalS /
                          r.metrics.at("sim_s_per_wall_s");
      if (base_wall == 0.0) {
        base_wall = wall;
        base_digest = r.output_digest;
      } else if (r.output_digest != base_digest) {
        std::cout << "OUTPUT DIGEST DIFFERS ACROSS THREAD COUNTS\n";
        ok = false;
      }
      std::cout << std::left << std::setw(18) << w.name << std::right
                << std::setw(8) << t << std::fixed << std::setprecision(2)
                << std::setw(9) << wall << std::setw(14) << std::setprecision(0)
                << r.metrics.at("sim_s_per_wall_s") << std::setprecision(2)
                << std::setw(9) << base_wall / wall << std::setw(12)
                << r.metrics.at("sched.schedule_s") << std::setw(8)
                << r.metrics.at("sim.step_s") << std::setw(10)
                << r.metrics.at("sim.faults_s") << std::setw(9)
                << r.metrics.at("sim.audit_s") << std::defaultfloat << "\n";
    }
  }
  return ok ? 0 : 3;
}

std::vector<std::string> Split(const std::string& list) {
  std::vector<std::string> out;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Parses "1,2,4" into thread counts in [1, 256]; false on anything else.
bool ParseThreadCounts(const std::string& list, std::vector<int>* out) {
  for (const std::string& item : Split(list)) {
    char* end = nullptr;
    const long v = std::strtol(item.c_str(), &end, 10);
    if (*end != '\0' || v < 1 || v > 256) return false;
    out->push_back(static_cast<int>(v));
  }
  return !out->empty();
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  optimus::FlagParser flags(argc, argv);
  Options opt;
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", kDefaultSeed));
  opt.seconds = flags.GetDouble("seconds", 0.0);
  opt.trace = flags.GetInt("trace", 0) != 0;
  opt.smoke = flags.GetBool("smoke", false);
  opt.all_metrics = flags.GetBool("all-metrics", false);
  opt.trace_dir = flags.GetString("trace-dir", "");
  const std::string workload = flags.GetString("workload", "");
  const std::string threads = flags.GetString("threads", "");
  const int repeat = static_cast<int>(flags.GetInt("repeat", 1));
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 2;
  }
  if (!flags.positional().empty() || repeat < 1 || opt.seconds < 0.0) {
    std::cerr << "usage: see the header of bench/ledger/ledger.cc\n";
    return 2;
  }

  const std::vector<Workload> workloads = Workloads(opt.smoke);
  std::vector<int> counts;
  if (!threads.empty() && !ParseThreadCounts(threads, &counts)) {
    std::cerr << "--threads expects counts in [1, 256], e.g. 1,2,4\n";
    return 2;
  }
  if (!workload.empty()) {
    const auto it = std::find_if(workloads.begin(), workloads.end(),
                                 [&](const Workload& w) { return w.name == workload; });
    if (it == workloads.end()) {
      std::cerr << "unknown workload " << workload << "\n";
      return 2;
    }
    if (counts.size() > 1) {
      std::cerr << "--workload takes at most one thread count\n";
      return 2;
    }
    return RunWorkload(*it, counts.empty() ? it->threads : counts[0], opt);
  }
  if (!counts.empty()) {
    return RunScaling(workloads, counts, opt);
  }
  return RunPasses(workloads, repeat, opt);
}
