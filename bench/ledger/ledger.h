// optimus_ledger: the workloads the benchmark runs and the timed record of
// one run of a workload. README.md in this directory defines every workload
// and metric; ledger.cc turns runs into metrics.
//
// The ledger times only calls into public functions (the Simulator
// constructor, Simulator::AdvanceTo / Run / WhatIf, ServiceSession::Create /
// HandleLine) and reads counters the program already exports (RunMetrics and
// the metrics registry). Nothing inside src/ is instrumented for it.

#ifndef BENCH_LEDGER_LEDGER_H_
#define BENCH_LEDGER_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/job.h"
#include "src/sim/simulator.h"

namespace ledger {

// The seed Workload::input_hash is recorded at.
inline constexpr uint64_t kDefaultSeed = 7;
inline constexpr double kIntervalS = 600.0;

// A batch simulation driven one scheduling interval at a time.
struct SimShape {
  optimus::SimEngine engine = optimus::SimEngine::kEvents;
  int jobs = 0;
  int servers = 0;
  // Uniform arrivals over [0, arrival_intervals * kIntervalS].
  double arrival_intervals = 0.0;
  int horizon_intervals = 120;
  int64_t target_steps_per_epoch = 20;
  // bench_interval's fault plan and dense loss feed (conv_samples_per_interval
  // 300 fitted at 16384 points).
  bool faults_and_loss_feed = false;
  // Contention fabric over racks of 32 at 4:1 oversubscription.
  bool contention = false;
  // Streaming admission with a hash-only event trace.
  bool streaming = false;
  int shards = 1;
};

// A ServiceSession over a generated genesis scenario, driven by a closed loop
// of one client replaying a generated request log.
struct ServeShape {
  int jobs = 0;
  double arrival_window_s = 0.0;
  int servers = 0;
  int rack_size = 0;
  // Whole blocks of 100: the request mix is exact within each block.
  int requests = 0;
  // Each advance request targets the previous target plus this.
  double advance_step_s = 0.0;
};

struct Workload {
  std::string name;
  // Fixed thread count of the canonical workload (never above the 4 cores
  // the benchmark was sized on); --threads changes it for scaling curves only.
  int threads = 1;
  // Nominal wall time of one run, its input generation included, on that
  // machine. A measurement of S seconds makes max(1, floor(S / run_s)) runs:
  // the count depends on the workload and S, never on how fast the code is.
  double run_s = 1.0;
  bool serve = false;
  SimShape sim;
  ServeShape service;
  // FNV-1a digest of the generated inputs at kDefaultSeed and canonical size.
  uint64_t input_hash = 0;
};

// The five canonical workloads, or their --smoke miniatures (same code paths,
// smaller sizes).
std::vector<Workload> Workloads(bool smoke);

// Generated inputs of one workload at one seed. Runs and set-ups regenerate
// them rather than copy them, so the only copy alive at any time is the
// program's own and peak RSS is the workload's.
struct Inputs {
  // Simulator workloads.
  std::vector<optimus::JobSpec> specs;
  // serve: genesis scenario text, the request log and each line's op.
  std::string genesis;
  std::vector<std::string> requests;
  std::vector<std::string> request_ops;
};

Inputs GenerateInputs(const Workload& w, uint64_t seed);
uint64_t HashInputs(const Inputs& in);

// One timed public call.
struct Span {
  std::string name;
  double start_s = 0.0;  // since the start of the run
  double dur_s = 0.0;
  // Deltas of the program's phase totals and counters over the call.
  std::vector<std::pair<std::string, double>> args;
};

// One run of a workload from construction to the end of its horizon (or of
// its request log).
struct Run {
  double setup_s = 0.0;  // cluster build + constructor, or Create
  double sim_s = 0.0;    // simulated seconds the driven calls covered
  // Wall time from the first driven call to the end of the last, including
  // the ledger's own work between calls (tracing, probes, digests).
  double elapsed_s = 0.0;
  // Wall time of each driven call, in call order: every AdvanceTo and the
  // final Run, or every HandleLine. The sequence is the same in every run of
  // a seed, so runs can be compared call by call.
  std::vector<double> call_s;
  // Whether each call is a latency sample: AdvanceTo calls that moved the
  // clock, and every HandleLine.
  std::vector<bool> sampled;
  // ProbeSeconds() taken just before every probe_stride-th call, from the
  // first: before every call on the simulator workloads, which take
  // milliseconds each, and before every 10th request on serve.
  std::vector<double> probe_s;
  size_t probe_stride = 1;
  double avg_jct_s = 0.0;
  int completed_jobs = 0;
  // Event-trace digest folded with the completed-job count (and, for serve,
  // every response byte): equal digests mean equal behaviour.
  uint64_t output_digest = 0;
  int64_t attempted = 0;  // public calls made
  int64_t failed = 0;     // calls answered ok:false or followed by a violation
  // Traced runs only: spans, and the per-layer values of the run (phase
  // totals, counters, per-call statistics), keyed by metric name.
  std::vector<Span> spans;
  std::map<std::string, double> layers;
};

// Times cluster build + Simulator construction (or ServiceSession::Create)
// on already generated inputs, and discards the result.
double TimeSetup(const Workload& w, uint64_t seed, int threads);

Run RunOnce(const Workload& w, uint64_t seed, int threads, bool traced);

// The host-speed probe: the shortest of four sorts of the same 4,096
// pseudo-random integers, in seconds. A shared virtual machine runs a
// virtual CPU up to 1.65x slower for seconds to minutes at a time, so the
// ledger measures the speed of the CPU it runs on between calls and reports
// end-to-end times at the speed of a reference machine. The probe is the
// ledger's own code, fits in the first-level cache, and never runs while the
// program under test does.
double ProbeSeconds();

}  // namespace ledger

#endif  // BENCH_LEDGER_LEDGER_H_
