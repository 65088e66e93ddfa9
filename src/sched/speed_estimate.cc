#include "src/sched/speed_estimate.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace optimus {

StepProfile StepProfile::Of(const JobSpec& spec) {
  StepProfile profile;
  profile.model = spec.model;
  profile.mode = spec.mode;
  profile.comm = spec.comm;
  profile.global_batch = spec.GlobalBatch();
  profile.async_minibatch = spec.AsyncMinibatch();
  return profile;
}

StepTimeInputs StepProfile::Inputs(int num_ps, int num_workers) const {
  StepTimeInputs in;
  in.model = model;
  in.mode = mode;
  in.comm = comm;
  in.num_ps = num_ps;
  in.num_workers = num_workers;
  in.global_batch = global_batch;
  in.async_minibatch = async_minibatch;
  return in;
}

SpeedEstimate SpeedEstimate::Fitted(const SpeedModel& model, double steps_per_epoch,
                                    bool pin_ps) {
  SpeedEstimate e;
  if (!model.fitted()) {
    return e;
  }
  e.kind_ = Kind::kFitted;
  e.pin_ps_ = pin_ps;
  e.mode_ = model.mode();
  e.batch_ = model.global_batch();
  const std::vector<double>& theta = model.theta();
  OPTIMUS_CHECK_LE(theta.size(), e.theta_.size());
  std::copy(theta.begin(), theta.end(), e.theta_.begin());
  e.steps_per_epoch_ = steps_per_epoch;
  return e;
}

SpeedEstimate SpeedEstimate::NaiveLinear(const SpeedModel& model, double steps_per_epoch) {
  SpeedEstimate e;
  if (!model.fitted()) {
    return e;
  }
  e.kind_ = Kind::kNaiveLinear;
  e.f11_ = model.Estimate(1, 1);
  e.steps_per_epoch_ = steps_per_epoch;
  return e;
}

SpeedEstimate SpeedEstimate::Oracle(const StepProfile& profile, const CommConfig& comm,
                                    double steps_per_epoch, double error, double span) {
  OPTIMUS_CHECK(profile.model != nullptr);
  SpeedEstimate e;
  e.kind_ = Kind::kOracle;
  e.profile_ = profile;
  e.comm_ = comm;
  e.steps_per_epoch_ = steps_per_epoch;
  e.error_ = error;
  e.span_ = span;
  return e;
}

SpeedEstimate SpeedEstimate::Custom(CustomFn fn, const void* ctx) {
  OPTIMUS_CHECK(fn != nullptr);
  SpeedEstimate e;
  e.kind_ = Kind::kCustom;
  e.fn_ = fn;
  e.ctx_ = ctx;
  return e;
}

SpeedEstimate SpeedEstimate::WithBatchScaling(const StepProfile& profile,
                                              const CommConfig& comm) const {
  OPTIMUS_CHECK(profile.model != nullptr);
  // An oracle already holds its own profile; scaling by another would make
  // one estimate answer for two models.
  OPTIMUS_CHECK(kind_ != Kind::kOracle || (profile == profile_ && comm == comm_));
  SpeedEstimate e = *this;
  e.batch_scaling_ = true;
  e.profile_ = profile;
  e.comm_ = comm;
  return e;
}

double SpeedEstimate::OracleSpeed(int num_ps, int num_workers) const {
  const double f =
      TrainingSpeed(profile_.Inputs(num_ps, num_workers), comm_) / steps_per_epoch_;
  if (error_ == 0.0) {
    return f;
  }
  const double tilt = 2.0 * (num_ps + num_workers) / span_ - 1.0;
  return f * (1.0 + error_ * tilt);
}

double SpeedEstimate::BatchSpeed(int num_ps, int num_workers, int global_batch) const {
  OPTIMUS_CHECK(batch_scaling_);
  StepTimeInputs in = profile_.Inputs(num_ps, num_workers);  // at the reference batch
  const double ref_speed = TrainingSpeed(in, comm_);
  in.global_batch = global_batch;
  const double b_speed = TrainingSpeed(in, comm_);
  const double ratio = ref_speed > 0.0 ? b_speed / ref_speed : 1.0;
  return (*this)(num_ps, num_workers) * ratio;
}

size_t SpeedEstimate::Hash() const {
  size_t h = static_cast<size_t>(kind_);
  const auto mix = [&h](size_t v) { h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2); };
  const std::hash<double> dbl;
  mix(static_cast<size_t>(pin_ps_) | static_cast<size_t>(batch_scaling_) << 1 |
      static_cast<size_t>(mode_) << 2);
  mix(dbl(batch_));
  for (const double t : theta_) {
    mix(dbl(t));
  }
  mix(dbl(f11_));
  mix(dbl(steps_per_epoch_));
  mix(std::hash<const void*>{}(profile_.model));
  mix(static_cast<size_t>(profile_.mode) << 8 | static_cast<size_t>(profile_.comm));
  mix(static_cast<size_t>(static_cast<uint32_t>(profile_.global_batch)) << 32 |
      static_cast<uint32_t>(profile_.async_minibatch));
  mix(dbl(comm_.container_bandwidth_bps));
  mix(dbl(comm_.async_concurrency));
  mix(dbl(error_));
  mix(dbl(span_));
  mix(std::hash<CustomFn>{}(fn_));
  mix(std::hash<const void*>{}(ctx_));
  return h;
}

}  // namespace optimus
