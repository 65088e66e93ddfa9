#include "src/sim/workload.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/data_serving.h"
#include "src/common/logging.h"
#include "src/models/model_zoo.h"

namespace optimus {

const char* ArrivalKindName(ArrivalSpec::Kind kind) {
  switch (kind) {
    case ArrivalSpec::Kind::kUniform:
      return "uniform";
    case ArrivalSpec::Kind::kPoisson:
      return "poisson";
    case ArrivalSpec::Kind::kBursty:
      return "bursty";
    case ArrivalSpec::Kind::kDiurnal:
      return "diurnal";
  }
  return "unknown";
}

bool ParseArrivalKind(const std::string& name, ArrivalSpec::Kind* kind) {
  OPTIMUS_CHECK(kind != nullptr);
  if (name == "uniform") {
    *kind = ArrivalSpec::Kind::kUniform;
  } else if (name == "poisson") {
    *kind = ArrivalSpec::Kind::kPoisson;
  } else if (name == "bursty") {
    *kind = ArrivalSpec::Kind::kBursty;
  } else if (name == "diurnal") {
    *kind = ArrivalSpec::Kind::kDiurnal;
  } else {
    return false;
  }
  return true;
}

const char* JobSizeKindName(JobSizeSpec::Kind kind) {
  switch (kind) {
    case JobSizeSpec::Kind::kZoo:
      return "zoo";
    case JobSizeSpec::Kind::kPareto:
      return "pareto";
    case JobSizeSpec::Kind::kLognormal:
      return "lognormal";
  }
  return "unknown";
}

bool ParseJobSizeKind(const std::string& name, JobSizeSpec::Kind* kind) {
  OPTIMUS_CHECK(kind != nullptr);
  if (name == "zoo") {
    *kind = JobSizeSpec::Kind::kZoo;
  } else if (name == "pareto") {
    *kind = JobSizeSpec::Kind::kPareto;
  } else if (name == "lognormal") {
    *kind = JobSizeSpec::Kind::kLognormal;
  } else {
    return false;
  }
  return true;
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

void Check(bool ok, const std::string& message, std::vector<std::string>* errors,
           bool* valid) {
  if (!ok) {
    if (errors != nullptr) {
      errors->push_back(message);
    }
    *valid = false;
  }
}

bool IsProbRange(double lo, double hi) {
  return std::isfinite(lo) && std::isfinite(hi) && lo > 0.0 && hi >= lo &&
         hi <= 1.0;
}

// Bound on a rate-driven arrival process: at most 10^7 intervals of at most
// 10^7 s each (the committed scenarios span at most 10^3 intervals of 600 s).
constexpr double kMaxArrivalIntervals = 1e7;
// Bound on a bursty interval's Poisson mean (rate_per_interval * spike_multiplier,
// 15 in every committed workload): the draw never returns past int64's range.
constexpr double kMaxBurstyMean = 1e12;

// The fields a workload gives every job verbatim, on the first zoo model in
// the forced mode (or sync): DrawJob starts from it, and WorkloadSpec::Validate
// checks it.
JobSpec Prototype(const WorkloadSpec& spec) {
  return {.model = &GetModelZoo().front(),
          .mode = spec.forced_mode.value_or(TrainingMode::kSync),
          .comm = spec.comm,
          .patience = spec.patience,
          .worker_demand = spec.worker_demand,
          .ps_demand = spec.ps_demand,
          .max_workers = spec.max_workers,
          .max_ps = spec.max_ps,
          .lr_drop = std::nullopt,
          .batch_min = spec.batch_min,
          .batch_max = spec.batch_max,
          .cpu_sensitivity = spec.cpu_sensitivity,
          .mem_sensitivity = spec.mem_sensitivity};
}

// The largest job-size multiplier: the whole number that keeps every zoo
// model's full dataset within kMaxDatasetBytes (downscaling only shrinks it).
double MaxSizeMultiplier() {
  static const double max_multiplier = [] {
    double largest = 0.0;
    for (const ModelSpec& m : GetModelZoo()) {
      largest = std::max(largest, ExactDatasetBytes(m));
    }
    return std::floor(static_cast<double>(kMaxDatasetBytes) / largest);
  }();
  return max_multiplier;
}

}  // namespace

bool WorkloadSpec::Validate(std::vector<std::string>* errors) const {
  bool valid = true;
  valid = ValidateJobCount(num_jobs, errors) && valid;
  Check(arrivals.window_s > 0.0, "arrivals.window_s: must be > 0", errors,
        &valid);
  Check(arrivals.rate_per_interval > 0.0,
        "arrivals.rate_per_interval: must be > 0", errors, &valid);
  Check(arrivals.interval_s > 0.0, "arrivals.interval_s: must be > 0", errors,
        &valid);
  Check(arrivals.spike_fraction >= 0.0 && arrivals.spike_fraction <= 1.0,
        "arrivals.spike_fraction: must be in [0, 1]", errors, &valid);
  Check(arrivals.spike_multiplier >= 1.0,
        "arrivals.spike_multiplier: must be >= 1", errors, &valid);
  // A diurnal rate reads the phase t / period_s, which must stay finite.
  Check(arrivals.period_s >= 1.0, "arrivals.period_s: must be >= 1", errors,
        &valid);
  Check(arrivals.peak_to_trough >= 1.0,
        "arrivals.peak_to_trough: must be >= 1", errors, &valid);
  // A rate-driven process must place every arrival at a finite time: its
  // expected span, jobs / rate_per_interval intervals of interval_s, is
  // bounded.
  if (arrivals.kind != ArrivalSpec::Kind::kUniform) {
    Check(num_jobs / arrivals.rate_per_interval <= kMaxArrivalIntervals,
          "arrivals.rate_per_interval: jobs / rate_per_interval must be <= " +
              std::to_string(static_cast<int64_t>(kMaxArrivalIntervals)) + " intervals",
          errors, &valid);
    Check(arrivals.interval_s <= kMaxArrivalIntervals,
          "arrivals.interval_s: must be <= " +
              std::to_string(static_cast<int64_t>(kMaxArrivalIntervals)),
          errors, &valid);
  }
  if (arrivals.kind == ArrivalSpec::Kind::kBursty) {
    Check(arrivals.rate_per_interval * arrivals.spike_multiplier <= kMaxBurstyMean,
          "arrivals.rate_per_interval: rate_per_interval * spike_multiplier must be <= 1e12",
          errors, &valid);
  }
  Check(sizes.pareto_alpha > 0.0, "sizes.pareto_alpha: must be > 0", errors,
        &valid);
  Check(sizes.pareto_cap >= 1.0, "sizes.pareto_cap: must be >= 1", errors,
        &valid);
  Check(sizes.pareto_cap <= MaxSizeMultiplier(),
        "sizes.pareto_cap: must be <= " +
            std::to_string(static_cast<int64_t>(MaxSizeMultiplier())) +
            " (past it a job's dataset could exceed " +
            std::to_string(kMaxDatasetBytes) + " bytes)",
        errors, &valid);
  Check(sizes.lognormal_sigma >= 0.0, "sizes.lognormal_sigma: must be >= 0",
        errors, &valid);
  Check(sizes.target_steps_per_epoch >= 0,
        "sizes.target_steps_per_epoch: must be >= 0", errors, &valid);
  Check(std::isfinite(allreduce_fraction) && allreduce_fraction >= 0.0 &&
            allreduce_fraction <= 1.0,
        "allreduce_fraction: must be in [0, 1]", errors, &valid);
  Check(IsProbRange(delta_lo, delta_hi),
        "delta: need 0 < delta_lo <= delta_hi <= 1", errors, &valid);
  // The per-job fields, on the prototype job: JobSpec::Validate holds the
  // rules and caps every job meets, however it was made.
  valid = Prototype(*this).Validate(errors) && valid;
  for (const std::string& name : models.names) {
    Check(TryFindModel(name) != nullptr, "models.names: unknown model \"" + name + "\"",
          errors, &valid);
  }
  const size_t mix_size =
      models.names.empty() ? GetModelZoo().size() : models.names.size();
  Check(models.weights.empty() || models.weights.size() == mix_size,
        "models.weights: length must match the model mix (" +
            std::to_string(mix_size) + ")",
        errors, &valid);
  double weight_sum = 0.0;
  for (double w : models.weights) {
    Check(std::isfinite(w) && w >= 0.0, "models.weights: must be >= 0", errors,
          &valid);
    weight_sum += w;
  }
  Check(models.weights.empty() || weight_sum > 0.0,
        "models.weights: must not all be zero", errors, &valid);
  return valid;
}

namespace {

// Heavy-tail size multiplier (>= some fraction of 1, capped for Pareto).
double SizeMultiplier(const JobSizeSpec& sizes, Rng* rng) {
  switch (sizes.kind) {
    case JobSizeSpec::Kind::kZoo:
      return 1.0;
    case JobSizeSpec::Kind::kPareto: {
      // Standard Pareto with x_m = 1: x = (1 - u)^(-1/alpha).
      const double u = rng->Uniform(0.0, 1.0);
      const double x = std::pow(1.0 - u, -1.0 / sizes.pareto_alpha);
      return std::min(x, sizes.pareto_cap);
    }
    case JobSizeSpec::Kind::kLognormal:
      // Clamped both ways: past the cap a dataset could exceed
      // kMaxDatasetBytes, and a huge sigma can underflow a draw to 0.
      return std::clamp(rng->LogNormalFactor(sizes.lognormal_sigma),
                        1.0 / MaxSizeMultiplier(), MaxSizeMultiplier());
  }
  return 1.0;
}

std::vector<double> GenerateArrivals(const ArrivalSpec& spec, int num_jobs,
                                     Rng* rng) {
  std::vector<double> times;
  times.reserve(num_jobs);
  switch (spec.kind) {
    case ArrivalSpec::Kind::kUniform: {
      for (int i = 0; i < num_jobs; ++i) {
        times.push_back(rng->Uniform(0.0, spec.window_s));
      }
      break;
    }
    case ArrivalSpec::Kind::kPoisson: {
      const double rate_per_s = spec.rate_per_interval / spec.interval_s;
      double t = 0.0;
      for (int i = 0; i < num_jobs; ++i) {
        t += rng->Exponential(rate_per_s);
        times.push_back(t);
      }
      break;
    }
    case ArrivalSpec::Kind::kBursty: {
      // Quiet background plus spike intervals carrying a rate multiple; jobs
      // inside an interval land uniformly (the Google-trace shape).
      double interval_start = 0.0;
      while (static_cast<int>(times.size()) < num_jobs) {
        const bool spike = rng->Bernoulli(spec.spike_fraction);
        const double mean =
            spec.rate_per_interval * (spike ? spec.spike_multiplier : 0.4);
        const int64_t count = rng->Poisson(mean);
        for (int64_t i = 0;
             i < count && static_cast<int>(times.size()) < num_jobs; ++i) {
          times.push_back(interval_start + rng->Uniform(0.0, spec.interval_s));
        }
        interval_start += spec.interval_s;
      }
      break;
    }
    case ArrivalSpec::Kind::kDiurnal: {
      // Inhomogeneous Poisson via thinning: candidates at the peak rate,
      // accepted with probability rate(t) / rate_peak. rate(t) swings
      // sinusoidally so that peak / trough = peak_to_trough.
      const double base = spec.rate_per_interval / spec.interval_s;
      const double a = (spec.peak_to_trough - 1.0) / (spec.peak_to_trough + 1.0);
      const double peak = base * (1.0 + a);
      double t = 0.0;
      while (static_cast<int>(times.size()) < num_jobs) {
        t += rng->Exponential(peak);
        const double rate =
            base * (1.0 + a * std::sin(2.0 * M_PI * t / spec.period_s));
        if (rng->Bernoulli(rate / peak)) {
          times.push_back(t);
        }
      }
      break;
    }
  }
  std::sort(times.begin(), times.end());
  return times;
}

// A model mix resolved once per workload: the candidate models and, for a
// weighted mix, the running weight sums (empty = uniform pick).
struct ModelMix {
  std::vector<const ModelSpec*> models;
  std::vector<double> cumulative;
};

ModelMix ResolveModelMix(const ModelMixSpec& spec) {
  ModelMix mix;
  if (spec.names.empty()) {
    for (const ModelSpec& m : GetModelZoo()) {
      mix.models.push_back(&m);
    }
  } else {
    for (const std::string& name : spec.names) {
      mix.models.push_back(&FindModel(name));
    }
  }
  double sum = 0.0;
  for (double w : spec.weights) {
    sum += w;
    mix.cumulative.push_back(sum);
  }
  return mix;
}

// Job i's attributes: model, mode and threshold, then the size multiplier and
// the all-reduce flip, each drawn from `rng` only when the spec asks for it.
JobSpec DrawJob(const WorkloadSpec& spec, const ModelMix& mix, int i,
                double arrival_time_s, Rng* rng) {
  const std::vector<const ModelSpec*>& models = mix.models;
  JobSpec job = Prototype(spec);
  job.id = i;
  if (spec.models.cycle_first && i < static_cast<int>(models.size())) {
    job.model = models[static_cast<size_t>(i)];
  } else if (mix.cumulative.empty()) {
    job.model = models[static_cast<size_t>(rng->UniformInt(0, models.size() - 1))];
  } else {
    const double pick = rng->Uniform(0.0, mix.cumulative.back());
    const auto it =
        std::upper_bound(mix.cumulative.begin(), mix.cumulative.end(), pick);
    const size_t idx = std::min(
        static_cast<size_t>(it - mix.cumulative.begin()), models.size() - 1);
    job.model = models[idx];
  }
  job.mode = spec.forced_mode.has_value()
                 ? *spec.forced_mode
                 : (rng->Bernoulli(0.5) ? TrainingMode::kSync
                                        : TrainingMode::kAsync);
  job.convergence_delta = rng->Uniform(spec.delta_lo, spec.delta_hi);
  job.arrival_time_s = arrival_time_s;
  job.dataset_scale =
      DatasetScaleFor(*job.model, job.mode, spec.sizes.target_steps_per_epoch) *
      SizeMultiplier(spec.sizes, rng);
  if (job.comm == CommMode::kParameterServer &&
      spec.allreduce_fraction > 0.0 && rng->Bernoulli(spec.allreduce_fraction)) {
    job.comm = CommMode::kAllReduce;
  }
  if (job.comm == CommMode::kAllReduce) {
    job.mode = TrainingMode::kSync;
  }
  return job;
}

// The one draw path. With `split`, the arrivals read rng->Split(kArrivalStream)
// and job i reads rng->Split(kJobAttributeStreamBase + i); without, every
// draw reads `rng` in order.
std::vector<JobSpec> Generate(const WorkloadSpec& spec, bool split, Rng* rng) {
  OPTIMUS_CHECK(rng != nullptr);
  OPTIMUS_CHECK_GE(spec.num_jobs, 1);
  const ModelMix mix = ResolveModelMix(spec.models);

  std::vector<double> arrivals;
  if (split) {
    Rng arrival_rng = rng->Split(kArrivalStream);
    arrivals = GenerateArrivals(spec.arrivals, spec.num_jobs, &arrival_rng);
  } else {
    arrivals = GenerateArrivals(spec.arrivals, spec.num_jobs, rng);
  }
  std::vector<JobSpec> jobs;
  jobs.reserve(spec.num_jobs);
  for (int i = 0; i < spec.num_jobs; ++i) {
    const double arrival = arrivals[static_cast<size_t>(i)];
    if (split) {
      Rng job_rng = rng->Split(kJobAttributeStreamBase + static_cast<uint64_t>(i));
      jobs.push_back(DrawJob(spec, mix, i, arrival, &job_rng));
    } else {
      jobs.push_back(DrawJob(spec, mix, i, arrival, rng));
    }
  }
  return jobs;
}

}  // namespace

std::vector<JobSpec> GenerateJobs(const WorkloadSpec& spec, Rng* rng) {
  if (std::vector<std::string> errors; !spec.Validate(&errors)) {
    std::string joined;
    for (const std::string& e : errors) {
      joined += (joined.empty() ? "" : "; ") + e;
    }
    OPTIMUS_LOG(Fatal) << "invalid WorkloadSpec: " << joined;
  }
  return Generate(spec, /*split=*/true, rng);
}

std::vector<JobSpec> GenerateWorkload(const WorkloadConfig& config, Rng* rng) {
  WorkloadSpec spec;
  spec.num_jobs = config.num_jobs;
  spec.arrivals.kind = config.arrivals;
  spec.arrivals.window_s = config.arrival_window_s;
  spec.arrivals.rate_per_interval = config.arrivals_per_interval;
  spec.arrivals.interval_s = config.interval_s;
  spec.forced_mode = config.forced_mode;
  spec.sizes.target_steps_per_epoch = config.target_steps_per_epoch;
  return Generate(spec, /*split=*/false, rng);
}

}  // namespace optimus
