// Resource-to-training-speed models (§3.2, Eqns 3 and 4).
//
// Asynchronous training (Eqn 3):
//   f(p, w) = w * (theta0 + theta1*(w/p) + theta2*w + theta3*p)^-1
// Synchronous training (Eqn 4):
//   f(p, w) = (theta0*(M/w) + theta1 + theta2*(w/p) + theta3*w + theta4*p)^-1
//
// Both are linear in theta after inverting the speed (y = w/f resp. 1/f), so
// the coefficients are fitted with NNLS — exactly the paper's procedure. The
// model is initialized from a handful of short pre-runs at different (p, w)
// configurations and then recalibrated online as real measurements accrue.
//
// The normal equations are accumulated incrementally as samples arrive
// (GramSystem), so a refit costs O(k^2 * iterations) regardless of how many
// samples the job has collected, and a Fit() with no new samples returns the
// cached coefficients without solving at all. Both shortcuts reproduce the
// from-scratch fit bit for bit; set_caching(false) forces the from-scratch
// dense path, the test-side reference (tests/perfmodel_test.cc).

#ifndef SRC_PERFMODEL_SPEED_MODEL_H_
#define SRC_PERFMODEL_SPEED_MODEL_H_

#include <array>
#include <vector>

#include "src/models/model_zoo.h"
#include "src/perfmodel/fit_stats.h"
#include "src/solver/nnls.h"

namespace optimus {

// The Eqn-3/4 features at (p, w) for a model of `mode` at global batch M:
// the first 4 (async) or 5 (sync) entries; the rest are 0.
inline std::array<double, 5> SpeedFeatures(TrainingMode mode, double global_batch,
                                           int num_ps, int num_workers) {
  const double p = static_cast<double>(num_ps);
  const double w = static_cast<double>(num_workers);
  if (mode == TrainingMode::kAsync) {
    // T = theta0 + theta1*(w/p) + theta2*w + theta3*p.
    return {1.0, w / p, w, p, 0.0};
  }
  // T = theta0*(M/w) + theta1 + theta2*(w/p) + theta3*w + theta4*p.
  return {global_batch / w, 1.0, w / p, w, p};
}

// Eqn 3/4 at (p, w) for coefficients `theta` (4 async, 5 sync): job-level
// steps/s, 0 when the predicted step time is at most 1e-12. SpeedModel's
// Estimate and the scheduler's fitted SpeedEstimate both evaluate here, so
// the two agree bit for bit.
inline double SpeedFromTheta(TrainingMode mode, double global_batch, const double* theta,
                             int num_ps, int num_workers) {
  const std::array<double, 5> feat = SpeedFeatures(mode, global_batch, num_ps, num_workers);
  const size_t dims = mode == TrainingMode::kAsync ? 4 : 5;
  double t = 0.0;
  for (size_t c = 0; c < dims; ++c) {
    t += theta[c] * feat[c];
  }
  if (t <= 1e-12) {
    return 0.0;
  }
  return mode == TrainingMode::kAsync ? static_cast<double>(num_workers) / t : 1.0 / t;
}

struct SpeedSample {
  int num_ps = 0;
  int num_workers = 0;
  double speed = 0.0;  // job-level steps per second
};

class SpeedModel {
 public:
  // `global_batch` feeds the M/w term of the synchronous model; ignored for
  // asynchronous training.
  SpeedModel(TrainingMode mode, int global_batch);

  TrainingMode mode() const { return mode_; }
  // The global batch M of the synchronous model's M/w term.
  double global_batch() const { return global_batch_; }

  void AddSample(int num_ps, int num_workers, double speed);
  void AddSample(const SpeedSample& sample) {
    AddSample(sample.num_ps, sample.num_workers, sample.speed);
  }
  size_t num_samples() const { return samples_.size(); }
  // Raw samples collected so far (used for state snapshots; refitting from
  // them reproduces the model exactly).
  const std::vector<SpeedSample>& samples() const { return samples_; }
  void Reset();

  // Incremental refits (Gram accumulation + dirty flag) on by default; off
  // refits densely from the full sample history on every Fit() call.
  void set_caching(bool enabled) { caching_ = enabled; }

  // Refits theta on all samples. Returns true when a usable fit exists.
  bool Fit();
  bool fitted() const { return fitted_; }

  // Fitted coefficients (4 for async, 5 for sync).
  const std::vector<double>& theta() const { return theta_; }
  // Residual sum of squares in inverse-speed space at the last successful
  // fit, over the samples that fit saw. Summed when read: no refit pays for
  // it.
  double residual() const;

  // Fit accounting (solve attempts, dirty-flag cache hits, NNLS iterations);
  // fed into the observability registry by the simulator.
  const ModelFitStats& fit_stats() const { return fit_stats_; }

  // Estimated job-level training speed (steps/s); requires fitted().
  double Estimate(int num_ps, int num_workers) const;

 private:
  std::array<double, 5> Features(int num_ps, int num_workers) const {
    return SpeedFeatures(mode_, global_batch_, num_ps, num_workers);
  }
  double InverseSpeedTarget(const SpeedSample& s) const;
  size_t dims() const { return mode_ == TrainingMode::kAsync ? 4 : 5; }

  TrainingMode mode_;
  double global_batch_;
  std::vector<SpeedSample> samples_;
  GramSystem gram_;
  bool caching_ = true;
  bool dirty_ = false;  // samples added since the last solve
  std::vector<double> theta_;
  bool fitted_ = false;
  size_t fit_samples_ = 0;  // samples_.size() at the last successful fit
  ModelFitStats fit_stats_;
};

}  // namespace optimus

#endif  // SRC_PERFMODEL_SPEED_MODEL_H_
