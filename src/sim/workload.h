// Workload generation (§6.1).
//
// Jobs are drawn from the Table-1 model zoo with a random training mode and a
// random convergence threshold in [1%, 5%]. Three arrival processes are
// supported: the paper's default (uniform-random arrivals over a 12000 s
// window), a Poisson process (3 arrivals per 10-minute scheduling interval),
// and a Google-trace-like bursty process (background Poisson plus arrival
// spikes, mimicking the spiky 7-hour excerpt the paper replays).
//
// Long-training models are dataset-downscaled so one experiment finishes in
// hours instead of weeks, exactly as the paper does.

#ifndef SRC_SIM_WORKLOAD_H_
#define SRC_SIM_WORKLOAD_H_

#include <optional>
#include <vector>

#include "src/cluster/job.h"
#include "src/common/rng.h"

namespace optimus {

enum class ArrivalProcess {
  kUniformRandom,
  kPoisson,
  kGoogleTrace,
};

const char* ArrivalProcessName(ArrivalProcess process);

struct WorkloadConfig {
  int num_jobs = 9;
  ArrivalProcess arrivals = ArrivalProcess::kUniformRandom;
  // Uniform arrivals land in [0, arrival_window_s].
  double arrival_window_s = 12000.0;
  // Poisson / Google-trace rate, in arrivals per scheduling interval.
  double arrivals_per_interval = 3.0;
  double interval_s = 600.0;
  // Google-trace burstiness: a fraction of intervals are spikes carrying a
  // multiple of the base rate.
  double spike_interval_fraction = 0.15;
  double spike_multiplier = 5.0;
  // Force every job to one training mode (Fig 16); nullopt = random.
  std::optional<TrainingMode> forced_mode;
  // Convergence-threshold range (§6.1: 1%..5%).
  double delta_lo = 0.01;
  double delta_hi = 0.05;
  int patience = 3;
  // Container requests per worker / PS. 2.5 CPUs + 10 GB yields ~60 container
  // slots on the 13-server testbed, matching the 55-60 concurrently running
  // tasks of the paper's Fig 14 (Fig 4's microbenchmark uses larger 5-CPU
  // containers; the cluster experiment clearly oversubscribes CPU).
  Resources worker_demand{2.5, 10, 0, 0.15};
  Resources ps_demand{2.5, 10, 0, 0.15};
  int max_ps = 16;
  int max_workers = 16;
  // Dataset downscaling: cap steps-per-epoch at roughly this value so large
  // models finish in a simulated-hours experiment (0 disables downscaling).
  int64_t target_steps_per_epoch = 20;
};

// Generates `config.num_jobs` job specs with ids 0..n-1 sorted by arrival.
std::vector<JobSpec> GenerateWorkload(const WorkloadConfig& config, Rng* rng);

// Dataset downscaling factor that caps a model's steps per epoch (at its
// default batch for `mode`) at `target_steps_per_epoch`; 1.0 = untouched, as
// for a target <= 0. The one rule behind GenerateWorkload, the scenario
// generators and the service's submitted jobs.
double DatasetScaleFor(const ModelSpec& model, TrainingMode mode,
                       int64_t target_steps_per_epoch);

}  // namespace optimus

#endif  // SRC_SIM_WORKLOAD_H_
