#include "src/perfmodel/speed_model.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/solver/matrix.h"

namespace optimus {

SpeedModel::SpeedModel(TrainingMode mode, int global_batch)
    : mode_(mode),
      global_batch_(static_cast<double>(global_batch)),
      gram_(mode == TrainingMode::kAsync ? 4 : 5) {
  if (mode_ == TrainingMode::kSync) {
    OPTIMUS_CHECK_GT(global_batch, 0);
  }
}

double SpeedModel::InverseSpeedTarget(const SpeedSample& s) const {
  // Invert the speed into per-step time: async aggregates w workers.
  return mode_ == TrainingMode::kAsync
             ? static_cast<double>(s.num_workers) / s.speed
             : 1.0 / s.speed;
}

void SpeedModel::AddSample(int num_ps, int num_workers, double speed) {
  OPTIMUS_CHECK_GE(num_ps, 1);
  OPTIMUS_CHECK_GE(num_workers, 1);
  if (!std::isfinite(speed) || speed <= 0.0) {
    return;
  }
  samples_.push_back({num_ps, num_workers, speed});
  const std::array<double, 5> feat = Features(num_ps, num_workers);
  gram_.Add(feat.data(), dims(), InverseSpeedTarget(samples_.back()));
  dirty_ = true;
}

void SpeedModel::Reset() {
  samples_.clear();
  gram_.Reset();
  dirty_ = false;
  theta_.clear();
  fitted_ = false;
  fit_samples_ = 0;
}

bool SpeedModel::Fit() {
  if (samples_.size() < 3) {
    return fitted_;
  }
  if (caching_ && !dirty_) {
    ++fit_stats_.fit_cache_hits;
    return fitted_;  // no new samples since the last solve
  }
  ++fit_stats_.fits;

  NnlsResult fit;
  if (caching_) {
    fit = SolveNnlsGram(gram_);
  } else {
    const size_t d = dims();
    Matrix a(samples_.size(), d);
    Vector b(samples_.size());
    for (size_t i = 0; i < samples_.size(); ++i) {
      const SpeedSample& s = samples_[i];
      const std::array<double, 5> feat = Features(s.num_ps, s.num_workers);
      for (size_t c = 0; c < d; ++c) {
        a(i, c) = feat[c];
      }
      b[i] = InverseSpeedTarget(s);
    }
    fit = SolveNnls(a, b);
  }
  fit_stats_.nnls_iterations += fit.iterations;
  dirty_ = false;

  double sum = 0.0;
  for (double t : fit.x) {
    sum += t;
  }
  if (sum <= 0.0) {
    return fitted_;  // degenerate; keep any previous fit
  }
  theta_ = fit.x;
  fit_samples_ = samples_.size();
  fitted_ = true;
  return true;
}

double SpeedModel::residual() const {
  // Exact residual in inverse-speed space (same accumulation order as the
  // dense ResidualSumOfSquares, so both code paths report identical values).
  // Samples only append until Reset(), so the first fit_samples_ are the
  // ones the fit saw.
  double rss = 0.0;
  for (size_t i = 0; i < fit_samples_; ++i) {
    const SpeedSample& s = samples_[i];
    const std::array<double, 5> feat = Features(s.num_ps, s.num_workers);
    double pred = 0.0;
    for (size_t c = 0; c < dims(); ++c) {
      pred += feat[c] * theta_[c];
    }
    const double e = pred - InverseSpeedTarget(s);
    rss += e * e;
  }
  return rss;
}

double SpeedModel::Estimate(int num_ps, int num_workers) const {
  OPTIMUS_CHECK(fitted_);
  OPTIMUS_CHECK_GE(num_ps, 1);
  OPTIMUS_CHECK_GE(num_workers, 1);
  return SpeedFromTheta(mode_, global_batch_, theta_.data(), num_ps, num_workers);
}

}  // namespace optimus
