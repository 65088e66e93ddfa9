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
  // Residual sum of squares in inverse-speed space at the last fit.
  double residual() const { return residual_; }

  // Fit accounting (solve attempts, dirty-flag cache hits, NNLS iterations);
  // fed into the observability registry by the simulator.
  const ModelFitStats& fit_stats() const { return fit_stats_; }

  // Estimated job-level training speed (steps/s); requires fitted().
  double Estimate(int num_ps, int num_workers) const;

 private:
  // The first dims() entries are the model's features; the rest are unused.
  std::array<double, 5> Features(int num_ps, int num_workers) const;
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
  double residual_ = 0.0;
  ModelFitStats fit_stats_;
};

}  // namespace optimus

#endif  // SRC_PERFMODEL_SPEED_MODEL_H_
