#include "src/sim/workload.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/models/model_zoo.h"

namespace optimus {

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kUniformRandom:
      return "uniform-random";
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kGoogleTrace:
      return "google-trace";
  }
  return "unknown";
}

double DatasetScaleFor(const ModelSpec& model, TrainingMode mode,
                       int64_t target_steps_per_epoch) {
  if (target_steps_per_epoch <= 0) {
    return 1.0;
  }
  const int batch = mode == TrainingMode::kSync ? model.default_sync_batch
                                                : model.default_async_minibatch;
  const double full_steps =
      static_cast<double>(model.dataset_examples) / static_cast<double>(batch);
  if (full_steps <= static_cast<double>(target_steps_per_epoch)) {
    return 1.0;
  }
  return static_cast<double>(target_steps_per_epoch) / full_steps;
}

namespace {

std::vector<double> GenerateArrivalTimes(const WorkloadConfig& config, Rng* rng) {
  std::vector<double> times;
  times.reserve(config.num_jobs);
  switch (config.arrivals) {
    case ArrivalProcess::kUniformRandom: {
      for (int i = 0; i < config.num_jobs; ++i) {
        times.push_back(rng->Uniform(0.0, config.arrival_window_s));
      }
      break;
    }
    case ArrivalProcess::kPoisson: {
      // Exponential inter-arrival gaps with the configured per-interval rate.
      const double rate_per_s = config.arrivals_per_interval / config.interval_s;
      double t = 0.0;
      for (int i = 0; i < config.num_jobs; ++i) {
        t += rng->Exponential(rate_per_s);
        times.push_back(t);
      }
      break;
    }
    case ArrivalProcess::kGoogleTrace: {
      // Bursty: walk intervals; spike intervals carry `spike_multiplier`
      // times the base rate, and the jobs inside an interval land uniformly.
      double interval_start = 0.0;
      while (static_cast<int>(times.size()) < config.num_jobs) {
        const bool spike = rng->Bernoulli(config.spike_interval_fraction);
        const double mean =
            config.arrivals_per_interval * (spike ? config.spike_multiplier : 0.4);
        const int64_t count = rng->Poisson(mean);
        for (int64_t i = 0; i < count && static_cast<int>(times.size()) < config.num_jobs;
             ++i) {
          times.push_back(interval_start + rng->Uniform(0.0, config.interval_s));
        }
        interval_start += config.interval_s;
      }
      break;
    }
  }
  std::sort(times.begin(), times.end());
  return times;
}

}  // namespace

std::vector<JobSpec> GenerateWorkload(const WorkloadConfig& config, Rng* rng) {
  OPTIMUS_CHECK(rng != nullptr);
  OPTIMUS_CHECK_GE(config.num_jobs, 1);
  const std::vector<ModelSpec>& zoo = GetModelZoo();

  const std::vector<double> arrivals = GenerateArrivalTimes(config, rng);
  std::vector<JobSpec> jobs;
  jobs.reserve(config.num_jobs);
  for (int i = 0; i < config.num_jobs; ++i) {
    JobSpec spec;
    spec.id = i;
    // First 9 jobs cycle through the whole zoo (the paper's testbed runs one
    // of each); later jobs are uniform random draws.
    if (i < static_cast<int>(zoo.size())) {
      spec.model = &zoo[static_cast<size_t>(i) % zoo.size()];
    } else {
      spec.model = &zoo[static_cast<size_t>(rng->UniformInt(0, zoo.size() - 1))];
    }
    spec.mode = config.forced_mode.has_value()
                    ? *config.forced_mode
                    : (rng->Bernoulli(0.5) ? TrainingMode::kSync : TrainingMode::kAsync);
    spec.convergence_delta = rng->Uniform(config.delta_lo, config.delta_hi);
    spec.patience = config.patience;
    spec.worker_demand = config.worker_demand;
    spec.ps_demand = config.ps_demand;
    spec.arrival_time_s = arrivals[i];
    spec.dataset_scale =
        DatasetScaleFor(*spec.model, spec.mode, config.target_steps_per_epoch);
    spec.max_ps = config.max_ps;
    spec.max_workers = config.max_workers;
    jobs.push_back(spec);
  }
  return jobs;
}

}  // namespace optimus
