#include "src/workload/generators.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/models/model_zoo.h"
#include "src/sim/workload.h"

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

}  // namespace

bool WorkloadSpec::Validate(std::vector<std::string>* errors) const {
  bool valid = true;
  Check(num_jobs >= 1, "num_jobs: must be >= 1", errors, &valid);
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
  Check(arrivals.period_s > 0.0, "arrivals.period_s: must be > 0", errors,
        &valid);
  Check(arrivals.peak_to_trough >= 1.0,
        "arrivals.peak_to_trough: must be >= 1", errors, &valid);
  Check(sizes.pareto_alpha > 0.0, "sizes.pareto_alpha: must be > 0", errors,
        &valid);
  Check(sizes.pareto_cap >= 1.0, "sizes.pareto_cap: must be >= 1", errors,
        &valid);
  Check(sizes.lognormal_sigma >= 0.0, "sizes.lognormal_sigma: must be >= 0",
        errors, &valid);
  Check(sizes.target_steps_per_epoch >= 0,
        "sizes.target_steps_per_epoch: must be >= 0", errors, &valid);
  Check(std::isfinite(allreduce_fraction) && allreduce_fraction >= 0.0 &&
            allreduce_fraction <= 1.0,
        "allreduce_fraction: must be in [0, 1]", errors, &valid);
  Check(comm == CommMode::kParameterServer || !forced_mode.has_value() ||
            *forced_mode == TrainingMode::kSync,
        "comm: allreduce jobs are always synchronous (mode must be sync)",
        errors, &valid);
  Check(IsProbRange(delta_lo, delta_hi),
        "delta: need 0 < delta_lo <= delta_hi <= 1", errors, &valid);
  Check(patience >= 1, "patience: must be >= 1", errors, &valid);
  Check(max_ps >= 1, "max_ps: must be >= 1", errors, &valid);
  Check(max_workers >= 1, "max_workers: must be >= 1", errors, &valid);
  Check(batch_min >= 0, "batch_min: must be >= 0", errors, &valid);
  Check(batch_max >= 0, "batch_max: must be >= 0", errors, &valid);
  Check(batch_min == 0 || batch_max == 0 || batch_min <= batch_max,
        "batch_min: must be <= batch_max when both are set", errors, &valid);
  Check(cpu_sensitivity < 0.0 ||
            (std::isfinite(cpu_sensitivity) && cpu_sensitivity <= 1.0),
        "cpu_sensitivity: must be in [0, 1] (or negative for model default)",
        errors, &valid);
  Check(mem_sensitivity < 0.0 ||
            (std::isfinite(mem_sensitivity) && mem_sensitivity <= 1.0),
        "mem_sensitivity: must be in [0, 1] (or negative for model default)",
        errors, &valid);
  for (const std::string& name : models.names) {
    bool found = false;
    for (const ModelSpec& m : GetModelZoo()) {
      if (m.name == name) {
        found = true;
        break;
      }
    }
    Check(found, "models.names: unknown model \"" + name + "\"", errors,
          &valid);
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
      return rng->LogNormalFactor(sizes.lognormal_sigma);
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

}  // namespace

std::vector<JobSpec> GenerateJobs(const WorkloadSpec& spec, Rng* rng) {
  OPTIMUS_CHECK(rng != nullptr);
  {
    std::vector<std::string> errors;
    if (!spec.Validate(&errors)) {
      std::string joined;
      for (const std::string& e : errors) {
        joined += (joined.empty() ? "" : "; ") + e;
      }
      OPTIMUS_LOG(Fatal) << "invalid WorkloadSpec: " << joined;
    }
  }

  // Resolve the model mix once.
  const std::vector<ModelSpec>& zoo = GetModelZoo();
  std::vector<const ModelSpec*> mix;
  if (spec.models.names.empty()) {
    for (const ModelSpec& m : zoo) {
      mix.push_back(&m);
    }
  } else {
    for (const std::string& name : spec.models.names) {
      mix.push_back(&FindModel(name));
    }
  }
  std::vector<double> cumulative;
  if (!spec.models.weights.empty()) {
    double sum = 0.0;
    for (double w : spec.models.weights) {
      sum += w;
      cumulative.push_back(sum);
    }
  }

  Rng arrival_rng = rng->Split(kArrivalStream);
  const std::vector<double> arrivals =
      GenerateArrivals(spec.arrivals, spec.num_jobs, &arrival_rng);

  std::vector<JobSpec> jobs;
  jobs.reserve(spec.num_jobs);
  for (int i = 0; i < spec.num_jobs; ++i) {
    Rng job_rng = rng->Split(kJobAttributeStreamBase + static_cast<uint64_t>(i));
    JobSpec job;
    job.id = i;
    if (spec.models.cycle_first && i < static_cast<int>(mix.size())) {
      job.model = mix[static_cast<size_t>(i)];
    } else if (cumulative.empty()) {
      job.model =
          mix[static_cast<size_t>(job_rng.UniformInt(0, mix.size() - 1))];
    } else {
      const double pick = job_rng.Uniform(0.0, cumulative.back());
      const auto it =
          std::upper_bound(cumulative.begin(), cumulative.end(), pick);
      const size_t idx = std::min(
          static_cast<size_t>(it - cumulative.begin()), mix.size() - 1);
      job.model = mix[idx];
    }
    job.mode = spec.forced_mode.has_value()
                   ? *spec.forced_mode
                   : (job_rng.Bernoulli(0.5) ? TrainingMode::kSync
                                             : TrainingMode::kAsync);
    job.convergence_delta = job_rng.Uniform(spec.delta_lo, spec.delta_hi);
    job.patience = spec.patience;
    job.worker_demand = spec.worker_demand;
    job.ps_demand = spec.ps_demand;
    job.arrival_time_s = arrivals[static_cast<size_t>(i)];
    job.dataset_scale =
        DatasetScaleFor(*job.model, job.mode, spec.sizes.target_steps_per_epoch) *
        SizeMultiplier(spec.sizes, &job_rng);
    job.max_ps = spec.max_ps;
    job.max_workers = spec.max_workers;
    // Communication architecture. The all-reduce flip draws after every
    // existing attribute draw, and only when the fraction is nonzero, so
    // PS-only workloads keep their historical RNG streams bit-for-bit.
    job.comm = spec.comm;
    if (job.comm == CommMode::kParameterServer &&
        spec.allreduce_fraction > 0.0 &&
        job_rng.Bernoulli(spec.allreduce_fraction)) {
      job.comm = CommMode::kAllReduce;
    }
    if (job.comm == CommMode::kAllReduce) {
      job.mode = TrainingMode::kSync;
    }
    // Batch bounds / sensitivity overrides copy straight from the spec (no
    // RNG draws): historical workloads' attribute streams stay bit-for-bit.
    job.batch_min = spec.batch_min;
    job.batch_max = spec.batch_max;
    job.cpu_sensitivity = spec.cpu_sensitivity;
    job.mem_sensitivity = spec.mem_sensitivity;
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace optimus
