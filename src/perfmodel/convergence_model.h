// Online convergence-curve fitting (§3.1, Eqn 1).
//
// Fits l(k) = 1/(beta0 * k + beta1) + beta2 (beta >= 0) to the training-loss
// samples collected so far. The model is linear in (beta0, beta1) once beta2
// is fixed — 1/(l - beta2) = beta0*k + beta1 — so the fit runs NNLS over a
// refining grid of beta2 candidates and keeps the candidate with the smallest
// residual in loss space. Losses are preprocessed (outlier removal,
// normalization, downsampling) exactly as the paper describes.
//
// The design matrix A = [step, 1] is the same for every beta2 candidate, so
// one Fit() accumulates A^T A once and factors each of its passive subsets
// once for all candidates. Each refinement pass builds every feasible
// candidate's A^T b in one sweep over the points, one accumulator lane per
// candidate; a candidate whose beta2 is within 1e-9 of the minimum loss is
// infeasible and never solved. The pass then solves every feasible
// candidate in one batched call (NnlsGramSolver::SolveLanes), scores a
// warm-start guess, and scores the rest in one lockstep sweep over the
// points, one residual accumulator per candidate, retiring every kScoreBlock
// points the candidates whose partial residual already exceeds the best so
// far. A dirty flag skips the refit entirely when no
// samples arrived since the last Fit(), and the epoch-walk prediction
// (PredictTotalEpochs) is memoized per fit. Every shortcut reproduces the
// from-scratch fit bit for bit (docs/ALGORITHMS.md §13 gives the argument);
// set_caching(false) forces the from-scratch, in-order path, the test-side
// reference (tests/perfmodel_test.cc).
//
// The fitted curve answers the scheduler's question: how many more epochs
// until the per-epoch loss decrease stays below the job's threshold? The
// answer walks the curve with the job's own stopping rule
// (src/models/convergence_rule.h).

#ifndef SRC_PERFMODEL_CONVERGENCE_MODEL_H_
#define SRC_PERFMODEL_CONVERGENCE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/perfmodel/fit_stats.h"
#include "src/perfmodel/preprocess.h"

namespace optimus {

// Remaining-epochs prior for a job whose convergence model has no fit yet.
inline constexpr double kDefaultRemainingEpochs = 30.0;

// The beta2 grid every fit refines: kFloorGrid + 1 points over
// [0, 0.999 * min loss], narrowed around the best kFloorRefinePasses times.
inline constexpr int kFloorGrid = 24;
inline constexpr int kFloorRefinePasses = 3;

struct ConvergenceModelOptions {
  // Maximum points handed to the solver; more are averaged down.
  int max_fit_points = 512;
  // beta2 grid resolution per refinement pass and number of passes.
  int beta2_grid = kFloorGrid;
  int refine_passes = kFloorRefinePasses;
};

class ConvergenceModel {
 public:
  // Points the cached sweep's lockstep residual pass sums between two checks
  // of its candidates against the bound.
  static constexpr size_t kScoreBlock = 64;
  // Outlier-removal window (neighbours per side, §3.1).
  static constexpr int kOutlierWindow = 5;
  // Minimum samples before a fit is attempted.
  static constexpr int kMinSamples = 8;

  explicit ConvergenceModel(ConvergenceModelOptions options = {});

  // Adds one raw (step, loss) observation.
  void AddSample(double step, double loss);

  // Drops all state (e.g., after a learning-rate change, §7).
  void Reset();

  size_t num_samples() const { return samples_.size(); }
  // Raw samples collected so far (used for state snapshots; refitting from
  // them reproduces the model exactly).
  const std::vector<LossSample>& samples() const { return samples_; }

  // Shared-Gram solves, the bounded warm-started sweep, dirty-flag refits,
  // and prediction memoization on by default; off re-derives everything from
  // scratch on every call.
  void set_caching(bool enabled) { caching_ = enabled; }

  // Refits the curve on all samples collected so far. Returns true when a
  // usable fit exists (also re-queryable via fitted()).
  bool Fit();
  bool fitted() const { return fitted_; }

  // Eqn-1 coefficients, in normalized-loss space.
  double beta0() const { return beta0_; }
  double beta1() const { return beta1_; }
  double beta2() const { return beta2_; }
  // Residual sum of squares of the last fit (normalized space).
  double residual() const { return residual_; }

  // Fit accounting (solve attempts, dirty-flag cache hits, NNLS iterations);
  // fed into the observability registry by the simulator.
  const ModelFitStats& fit_stats() const { return fit_stats_; }

  // Predicted raw (denormalized) loss at a step.
  double PredictLoss(double step) const;

  // Predicted total number of epochs from training start until convergence
  // under (delta, patience); `steps_per_epoch` converts steps to epochs.
  // Returns max_epochs when the fitted curve never converges within it.
  int64_t PredictTotalEpochs(double delta, int patience, int64_t steps_per_epoch,
                             int64_t max_epochs = 10000) const;

  // Remaining epochs from `current_step` until predicted convergence (>= 0);
  // kDefaultRemainingEpochs before the first fit.
  double PredictRemainingEpochs(double current_step, double delta, int patience,
                                int64_t steps_per_epoch,
                                int64_t max_epochs = 10000) const;

 private:
  ConvergenceModelOptions options_;
  bool caching_ = true;
  bool dirty_ = true;  // samples added since the last Fit() attempt
  bool fitted_ = false;
  std::vector<LossSample> samples_;
  double beta0_ = 0.0;
  double beta1_ = 0.0;
  double beta2_ = 0.0;
  double norm_factor_ = 1.0;
  double residual_ = 0.0;
  ModelFitStats fit_stats_;

  // Memoized PredictTotalEpochs walk, keyed by its arguments; invalidated
  // whenever the fitted curve changes.
  struct EpochsCache {
    double delta = 0.0;
    int64_t steps_per_epoch = 0;
    int64_t max_epochs = 0;
    int64_t total = 0;
    int patience = 0;
    bool valid = false;
  };
  mutable EpochsCache epochs_cache_;
};

}  // namespace optimus

#endif  // SRC_PERFMODEL_CONVERGENCE_MODEL_H_
