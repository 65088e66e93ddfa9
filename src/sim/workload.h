// Job generation (§6.1 and the scenario workloads).
//
// Jobs are drawn from the Table-1 model zoo (or an explicit, optionally
// weighted mix of it) with a random training mode and a random convergence
// threshold in [1%, 5%]. Arrival processes: uniform over a window (the paper's
// default, 12000 s), Poisson (3 arrivals per 10-minute scheduling interval), a
// Google-trace-like bursty process (quiet background plus spike intervals,
// mimicking the spiky 7-hour excerpt the paper replays) and a diurnal
// day/night sinusoid (§6.3's production-trace shape). Job sizes follow the
// zoo or a heavy Pareto / log-normal tail (Fig 2's completion-time spread).
// Long-training models are dataset-downscaled so one experiment finishes in
// hours instead of weeks, exactly as the paper does.
//
// One draw path serves both entry points: the arrival times come first, then
// one DrawJob per job, in the same order and with the same draws. The entry
// points differ only in the stream each draw reads:
//   - GenerateJobs (scenarios and so RunSweep, optimus_sim and the paper
//     benches; the service): arrivals read rng->Split(kArrivalStream) and
//     job i reads rng->Split(kJobAttributeStreamBase + i), so adding a job
//     or reordering attribute reads never perturbs another job's draws;
//   - GenerateWorkload (the ledger, the perf benches, examples and tests):
//     every draw reads `rng` itself, in order.
// The same (seed, spec) pair yields the same jobs on any platform and thread
// count.

#ifndef SRC_SIM_WORKLOAD_H_
#define SRC_SIM_WORKLOAD_H_

#include <optional>
#include <string>
#include <vector>

#include "src/cluster/job.h"
#include "src/common/rng.h"

namespace optimus {

// GenerateJobs' split stream ids under the caller's Rng.
inline constexpr uint64_t kArrivalStream = 1;
inline constexpr uint64_t kJobAttributeStreamBase = 1000;

struct ArrivalSpec {
  enum class Kind {
    kUniform,  // uniform over [0, window_s]
    kPoisson,  // homogeneous Poisson at rate_per_interval / interval_s
    kBursty,   // Google-trace-like: quiet background + spike intervals
    kDiurnal,  // sinusoidal-rate Poisson with a peak/trough ratio
  };
  Kind kind = Kind::kUniform;
  double window_s = 12000.0;
  double rate_per_interval = 3.0;
  double interval_s = 600.0;
  // Bursty: fraction of intervals that spike, and the spike's rate multiple.
  double spike_fraction = 0.15;
  double spike_multiplier = 5.0;
  // Diurnal: sinusoid period and peak-rate / trough-rate ratio (>= 1; 1 =
  // plain Poisson).
  double period_s = 86400.0;
  double peak_to_trough = 4.0;
};

const char* ArrivalKindName(ArrivalSpec::Kind kind);
// Parses "uniform" | "poisson" | "bursty" | "diurnal"; false on other input.
bool ParseArrivalKind(const std::string& name, ArrivalSpec::Kind* kind);

struct JobSizeSpec {
  enum class Kind {
    kZoo,        // model-default sizes (downscale cap only)
    kPareto,     // multiply work by min(Pareto(alpha), cap)
    kLognormal,  // multiply work by LogNormal(sigma), median 1
  };
  Kind kind = Kind::kZoo;
  double pareto_alpha = 1.5;
  double pareto_cap = 8.0;
  double lognormal_sigma = 0.8;
  // Dataset downscale cap before the size multiplier (0 = full dataset).
  int64_t target_steps_per_epoch = 20;
};

const char* JobSizeKindName(JobSizeSpec::Kind kind);
bool ParseJobSizeKind(const std::string& name, JobSizeSpec::Kind* kind);

// Which Table-1 models jobs draw, and how often. Empty names = whole zoo.
// Weights (when present) pair with names / the zoo order; they need not sum
// to 1. With cycle_first, the first min(num_jobs, |mix|) jobs deterministically
// cycle the mix (the paper's testbed runs one of each model) and only later
// jobs sample from the weights.
struct ModelMixSpec {
  std::vector<std::string> names;
  std::vector<double> weights;
  bool cycle_first = true;
};

struct WorkloadSpec {
  int num_jobs = 9;
  ArrivalSpec arrivals;
  JobSizeSpec sizes;
  ModelMixSpec models;
  // nullopt = each job flips a fair coin between sync and async (§6.1).
  std::optional<TrainingMode> forced_mode;
  // Base communication architecture for every job. All-reduce jobs are always
  // synchronous (the ring has no staleness notion), so comm = allreduce
  // overrides the mode coin with kSync.
  CommMode comm = CommMode::kParameterServer;
  // When > 0, each PS-mode job independently flips to ring all-reduce with
  // this probability (the mixed-fabric workloads of the network scenarios).
  // The flip draws from the job's stream *after* all other draws and only
  // when the fraction is nonzero, so PS-only workloads' streams are
  // unperturbed.
  double allreduce_fraction = 0.0;
  // Convergence-threshold range (§6.1: 1%..5%).
  double delta_lo = 0.01;
  double delta_hi = 0.05;
  int patience = 3;
  // Container requests per worker / PS. 2.5 CPUs + 10 GB yields ~60 container
  // slots on the 13-server testbed, matching the 55-60 concurrently running
  // tasks of the paper's Fig 14 (Fig 4's microbenchmark uses larger 5-CPU
  // containers; the cluster experiment clearly oversubscribes CPU). A job
  // record that omits its demands takes these.
  Resources worker_demand{2.5, 10, 0, 0.15};
  Resources ps_demand{2.5, 10, 0, 0.15};
  int max_ps = 16;
  int max_workers = 16;

  // Per-job batch-adaptivity bounds for batch-aware policies (0 = model
  // default; batch_min == batch_max pins the batch). Copied verbatim into
  // every JobSpec — no RNG draws, so setting them never perturbs the job
  // attribute streams.
  int batch_min = 0;
  int batch_max = 0;
  // Per-job sensitivity overrides for resource-sensitive policies; negative
  // (default) = model profile.
  double cpu_sensitivity = -1.0;
  double mem_sensitivity = -1.0;

  // Structural validation ("field: problem" messages, workload.-prefixed by
  // the scenario loader). Checks ranges, that every model name exists, and
  // the per-job fields through JobSpec::Validate on one prototype job.
  bool Validate(std::vector<std::string>* errors) const;
};

// Generates `spec.num_jobs` jobs with ids 0..n-1 sorted by arrival time, job
// i from its own split stream. Fatal on an invalid spec (call Validate for
// recoverable checking).
std::vector<JobSpec> GenerateJobs(const WorkloadSpec& spec, Rng* rng);

// The §6.1 workload: the WorkloadSpec defaults with these fields set.
struct WorkloadConfig {
  int num_jobs = 9;
  ArrivalSpec::Kind arrivals = ArrivalSpec::Kind::kUniform;
  // Uniform arrivals land in [0, arrival_window_s].
  double arrival_window_s = 12000.0;
  // Poisson / bursty rate, in arrivals per scheduling interval.
  double arrivals_per_interval = 3.0;
  double interval_s = 600.0;
  // Force every job to one training mode (Fig 16); nullopt = random.
  std::optional<TrainingMode> forced_mode;
  // Dataset downscaling: cap steps-per-epoch at roughly this value so large
  // models finish in a simulated-hours experiment (0 disables downscaling).
  int64_t target_steps_per_epoch = 20;
};

// Generates `config.num_jobs` job specs with ids 0..n-1 sorted by arrival,
// every draw from `rng` in order. Fatal when num_jobs < 1; a
// target_steps_per_epoch <= 0 disables downscaling.
std::vector<JobSpec> GenerateWorkload(const WorkloadConfig& config, Rng* rng);

// Dataset downscaling factor that caps a model's steps per epoch (at its
// default batch for `mode`) at `target_steps_per_epoch`; 1.0 = untouched, as
// for a target <= 0. The one rule behind both entry points and the service's
// submitted jobs.
double DatasetScaleFor(const ModelSpec& model, TrainingMode mode,
                       int64_t target_steps_per_epoch);

}  // namespace optimus

#endif  // SRC_SIM_WORKLOAD_H_
