#include "src/perfmodel/convergence_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/models/convergence_rule.h"
#include "src/solver/matrix.h"
#include "src/solver/nnls.h"

namespace optimus {

ConvergenceModel::ConvergenceModel(ConvergenceModelOptions options)
    : options_(options) {
  OPTIMUS_CHECK_GE(options_.beta2_grid, 2);
  OPTIMUS_CHECK_GE(options_.refine_passes, 1);
}

void ConvergenceModel::AddSample(double step, double loss) {
  OPTIMUS_CHECK_GE(step, 0.0);
  if (!std::isfinite(loss) || loss <= 0.0) {
    return;  // a real framework can emit NaN losses; never feed them the fit
  }
  samples_.push_back({step, loss});
  dirty_ = true;
}

void ConvergenceModel::Reset() {
  samples_.clear();
  dirty_ = true;
  fitted_ = false;
  beta0_ = beta1_ = beta2_ = 0.0;
  norm_factor_ = 1.0;
  residual_ = 0.0;
  epochs_cache_.valid = false;
}

namespace {

// Preprocesses `samples` for a fit (outliers -> normalize -> downsample) and
// sets `*norm_factor`. The points live in one buffer per thread that every
// refit on the thread rewrites: a buffer per model would keep a second copy
// of every live job's sample history.
const std::vector<LossSample>& FitPoints(const std::vector<LossSample>& samples,
                                         int max_points, double* norm_factor) {
  static thread_local std::vector<LossSample> pts;
  RemoveOutliers(samples, ConvergenceModel::kOutlierWindow, &pts);
  *norm_factor = NormalizeLosses(&pts);
  DownsampleInPlace(&pts, max_points);
  return pts;
}

// Loss-space residual of the (beta0, beta1, beta2) candidate. Predictions
// with beta1 == 0 at step 0 diverge, so guard the denominator.
//
// Returns as soon as the running sum exceeds `bound`, with that partial sum.
// Every term is non-negative, and under round-to-nearest adding a
// non-negative term never lowers a sum, so the full sum would exceed `bound`
// too. A sum that never exceeds `bound` is the full sum, bit for bit.
double LossSpaceRss(const std::vector<LossSample>& samples, double beta0,
                    double beta1, double beta2, double bound) {
  double rss = 0.0;
  for (const LossSample& s : samples) {
    const double denom = beta0 * s.step + beta1;
    const double pred = denom > 1e-12 ? 1.0 / denom + beta2 : 1e12;
    const double e = pred - s.loss;
    rss += e * e;
    if (rss > bound) {
      return rss;
    }
  }
  return rss;
}

// NNLS fit of (beta0, beta1) for a fixed beta2 on normalized samples; returns
// the residual in loss space (infinity when the transform is infeasible).
// From-scratch reference path: builds the dense system per candidate and sums
// every residual in full.
double FitForBeta2(const std::vector<LossSample>& samples, double beta2, double* beta0,
                   double* beta1, int64_t* nnls_iterations) {
  Matrix a(samples.size(), 2);
  Vector b(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const double gap = samples[i].loss - beta2;
    if (gap <= 1e-9) {
      return std::numeric_limits<double>::infinity();
    }
    a(i, 0) = samples[i].step;
    a(i, 1) = 1.0;
    b[i] = 1.0 / gap;
  }
  const NnlsResult fit = SolveNnls(a, b);
  *nnls_iterations += fit.iterations;
  *beta0 = fit.x[0];
  *beta1 = fit.x[1];
  return LossSpaceRss(samples, *beta0, *beta1, beta2,
                      std::numeric_limits<double>::infinity());
}

// Same fit from a shared A^T A: A = [step, 1] does not depend on beta2, so
// only the right-hand side is rebuilt per candidate. The moment sums below
// accumulate over samples in order, exactly like Matrix::Gram() /
// Matrix::TransposeTimes() over the dense build, so every solve is
// bit-identical to FitForBeta2.
struct ConvGram {
  double step_step = 0.0;  // sum step_i^2
  double step_one = 0.0;   // sum step_i
  double one_one = 0.0;    // n
};

ConvGram AccumulateConvGram(const std::vector<LossSample>& samples) {
  ConvGram g;
  for (const LossSample& s : samples) {
    g.step_step += s.step * s.step;
    g.step_one += s.step * 1.0;
    g.one_one += 1.0 * 1.0;
  }
  return g;
}

// Lanes still being summed by ScoreLockstep, compacted as they retire.
struct LiveLanes {
  std::vector<double> b0;
  std::vector<double> b1;
  std::vector<double> beta2;
  std::vector<double> rss;  // partial sum so far
  std::vector<int> lane;    // lane in Beta2Lanes
};

// One refinement pass, one lane per feasible beta2 candidate: its right-hand
// side, its NNLS solution and its loss-space residual. The lanes live in one
// buffer per thread that every refit on the thread rewrites, like the fit
// points, sized from the grid.
struct Beta2Lanes {
  std::vector<double> grid;  // the pass's beta2 at each grid index
  std::vector<double> beta2;
  std::vector<double> atb0;  // sum step_i * y_i
  std::vector<double> atb1;  // sum y_i
  std::vector<double> b0;
  std::vector<double> b1;
  std::vector<double> rss;   // the full sum, or a partial one above the bound
  std::vector<int> lane_of;  // grid index -> lane, or -1 when infeasible
  LiveLanes live;

  void Resize(size_t size) {
    for (std::vector<double>* v : {&grid, &beta2, &atb0, &atb1, &b0, &b1, &rss,
                                   &live.b0, &live.b1, &live.beta2, &live.rss}) {
      v->resize(size);
    }
    lane_of.resize(size);
    live.lane.resize(size);
  }
};

// Builds the first `lanes` lanes' A^T b, y_i = 1 / (loss_i - beta2), in one
// pass over the points. Each lane adds in point order, exactly like one pass
// per candidate (or Matrix::TransposeTimes over the dense build), so every
// sum keeps its bits. The lane loop has no branch, so the divides vectorize
// across candidates.
void SweepAtb(const std::vector<LossSample>& pts, size_t lanes, Beta2Lanes* out) {
  const double* beta2 = out->beta2.data();
  double* atb0 = out->atb0.data();
  double* atb1 = out->atb1.data();
  std::fill_n(atb0, lanes, 0.0);
  std::fill_n(atb1, lanes, 0.0);
  for (const LossSample& s : pts) {
    const double step = s.step;
    const double loss = s.loss;
    for (size_t k = 0; k < lanes; ++k) {
      const double y = 1.0 / (loss - beta2[k]);
      atb0[k] += step * y;
      atb1[k] += y;  // the dense A's column of ones: 1.0 * y == y
    }
  }
}

// Sums the first `m` live lanes' loss-space residuals in one pass over the
// points, one accumulator per lane, writing each into `rss` at its lane.
// Each lane adds its terms in point order, as LossSpaceRss does. The caller
// admits only lanes with beta0 finite and >= 0 and beta1 > 1e-12 on finite
// steps >= 0, so beta0 * step + beta1 >= beta1 > 1e-12 under monotone
// rounding: LossSpaceRss's guard always holds and the unguarded term gives
// the same bits. Without the select the lane loop vectorizes. At the end of
// every kScoreBlock points a lane whose partial sum exceeds `bound` retires
// with that sum; a lane that never does is summed in full, bit for bit.
void ScoreLockstep(const std::vector<LossSample>& pts, double bound, size_t m,
                   LiveLanes* live, double* rss) {
  double* b0 = live->b0.data();
  double* b1 = live->b1.data();
  double* beta2 = live->beta2.data();
  double* sum = live->rss.data();
  int* lane = live->lane.data();
  std::fill_n(sum, m, 0.0);
  const size_t n = pts.size();
  for (size_t begin = 0; begin < n && m > 0; begin += ConvergenceModel::kScoreBlock) {
    const size_t end = std::min(n, begin + ConvergenceModel::kScoreBlock);
    for (size_t p = begin; p < end; ++p) {
      const double step = pts[p].step;
      const double loss = pts[p].loss;
      for (size_t k = 0; k < m; ++k) {
        const double e = 1.0 / (b0[k] * step + b1[k]) + beta2[k] - loss;
        sum[k] += e * e;
      }
    }
    size_t kept = 0;
    for (size_t k = 0; k < m; ++k) {
      if (sum[k] > bound) {
        rss[lane[k]] = sum[k];
        continue;
      }
      b0[kept] = b0[k];
      b1[kept] = b1[k];
      beta2[kept] = beta2[k];
      sum[kept] = sum[k];
      lane[kept] = lane[k];
      ++kept;
    }
    m = kept;
  }
  for (size_t k = 0; k < m; ++k) {
    rss[lane[k]] = sum[k];
  }
}

// Scores the first `num_lanes` solved lanes. The `guess` lane (-1: none)
// goes first, bounded by `best_rss`; the lower of the two bounds every other
// lane. The lanes ScoreLockstep admits are summed together, the rest one at
// a time by LossSpaceRss. A lane stopped above the bound sums to more than
// the final best, so it can neither win nor tie.
void ScoreLanes(const std::vector<LossSample>& pts, int guess, double best_rss,
                bool finite_steps, size_t num_lanes, Beta2Lanes* lanes) {
  double bound = best_rss;
  if (guess >= 0) {
    lanes->rss[guess] = LossSpaceRss(pts, lanes->b0[guess], lanes->b1[guess],
                                     lanes->beta2[guess], best_rss);
    bound = std::min(bound, lanes->rss[guess]);  // a NaN guess leaves best_rss
  }
  LiveLanes& live = lanes->live;
  size_t m = 0;
  for (size_t k = 0; k < num_lanes; ++k) {
    if (static_cast<int>(k) == guess) {
      continue;
    }
    const double b0 = lanes->b0[k];
    const double b1 = lanes->b1[k];
    if (finite_steps && std::isfinite(b0) && b0 >= 0.0 && b1 > 1e-12) {
      live.b0[m] = b0;
      live.b1[m] = b1;
      live.beta2[m] = lanes->beta2[k];
      live.lane[m++] = static_cast<int>(k);
    } else {
      lanes->rss[k] = LossSpaceRss(pts, b0, b1, lanes->beta2[k], bound);
    }
  }
  ScoreLockstep(pts, bound, m, &live, lanes->rss.data());
}

}  // namespace

bool ConvergenceModel::Fit() {
  if (static_cast<int>(samples_.size()) < kMinSamples) {
    return fitted_;
  }
  if (caching_ && !dirty_) {
    ++fit_stats_.fit_cache_hits;
    return fitted_;  // no new samples since the last attempt
  }
  dirty_ = false;
  ++fit_stats_.fits;

  // The normalization factor applies immediately (even if this attempt ends
  // up degenerate and keeps the previous betas) — PredictLoss always
  // denormalizes with the latest factor.
  const std::vector<LossSample>& pts =
      FitPoints(samples_, options_.max_fit_points, &norm_factor_);

  double min_loss = std::numeric_limits<double>::infinity();
  for (const LossSample& s : pts) {
    min_loss = std::min(min_loss, s.loss);
  }

  const ConvGram gram = AccumulateConvGram(pts);
  const double ata[4] = {gram.step_step, gram.step_one, gram.step_one, gram.one_one};
  NnlsGramSolver solver(ata, 2);

  // Refining grid over beta2 in [0, min_loss). Each pass keeps the candidate
  // with the smallest residual, the lowest grid index among equals, of those
  // that beat the best of the earlier passes; NaN and infinity never win.
  // The reference path (caching off) sweeps g = 0..grid in order, which
  // yields that minimum with a plain `rss < best_rss`. Both paths compute a
  // pass's grid once, into lanes.grid. The cached path builds every
  // candidate's A^T b in one sweep per pass, solves them all in one
  // NnlsGramSolver::SolveLanes call (each lane with Solve's bits), scores a
  // guess first (the grid point nearest the previous fit's beta2 in pass 0,
  // the centre of the narrowed window after that) and then the rest in one
  // lockstep pass bounded by the best so far (ScoreLanes). A
  // candidate stopped early cannot win, and a winner is always summed in
  // full, so visiting the guess and then the other points picks the
  // reference's candidate with the same residual.
  const int grid = options_.beta2_grid;
  const double top = std::max(min_loss * 0.999, 0.0);
  const bool finite_steps = std::isfinite(gram.step_one);
  double lo = 0.0;
  double hi = top;
  double best_rss = std::numeric_limits<double>::infinity();
  double best_b0 = 0.0;
  double best_b1 = 0.0;
  double best_b2 = 0.0;
  static thread_local Beta2Lanes lanes;
  lanes.Resize(static_cast<size_t>(grid) + 1);
  for (int pass = 0; pass < options_.refine_passes; ++pass) {
    for (int g = 0; g <= grid; ++g) {
      lanes.grid[g] = lo + (hi - lo) * g / grid;
    }
    int first = 0;
    if (caching_) {
      first = grid / 2;
      if (pass == 0 && fitted_ && hi > 0.0) {
        first = static_cast<int>(std::lround(std::clamp(beta2_ / hi, 0.0, 1.0) * grid));
      }
      // The pass's grid is fixed, so every candidate's right-hand side comes
      // from one sweep. fl(l - beta2) never decreases as l grows, so some
      // point has a gap <= 1e-9 exactly when the minimum loss does: such a
      // candidate is infeasible and gets no lane and no solve.
      size_t num_lanes = 0;
      for (int g = 0; g <= grid; ++g) {
        const double beta2 = lanes.grid[g];
        if (min_loss - beta2 <= 1e-9) {
          lanes.lane_of[g] = -1;
          continue;
        }
        lanes.lane_of[g] = static_cast<int>(num_lanes);
        lanes.beta2[num_lanes++] = beta2;
      }
      SweepAtb(pts, num_lanes, &lanes);
      fit_stats_.nnls_iterations +=
          solver.SolveLanes(lanes.atb0.data(), lanes.atb1.data(), num_lanes,
                            lanes.b0.data(), lanes.b1.data());
      ScoreLanes(pts, lanes.lane_of[first], best_rss, finite_steps, num_lanes, &lanes);
    }
    double pass_best = best_b2;
    int pass_best_g = -1;  // no candidate of this pass has won yet
    for (int i = 0; i <= grid; ++i) {
      // Visit `first`, then 0..grid without it.
      const int g = i == 0 ? first : (i <= first ? i - 1 : i);
      const double beta2 = lanes.grid[g];
      double b0 = 0.0;
      double b1 = 0.0;
      double rss = std::numeric_limits<double>::infinity();
      if (!caching_) {
        rss = FitForBeta2(pts, beta2, &b0, &b1, &fit_stats_.nnls_iterations);
      } else if (const int k = lanes.lane_of[g]; k >= 0) {
        b0 = lanes.b0[k];
        b1 = lanes.b1[k];
        rss = lanes.rss[k];
      }
      if (rss < best_rss || (rss == best_rss && g < pass_best_g)) {
        best_rss = rss;
        best_b0 = b0;
        best_b1 = b1;
        best_b2 = beta2;
        pass_best = beta2;
        pass_best_g = g;
      }
    }
    // Narrow the window around the best candidate for the next pass.
    const double width = (hi - lo) / grid;
    lo = std::max(0.0, pass_best - width);
    hi = std::min(top, pass_best + width);
  }

  if (!std::isfinite(best_rss) || (best_b0 <= 0.0 && best_b1 <= 0.0)) {
    return fitted_;  // keep the previous fit if this one is degenerate
  }
  beta0_ = best_b0;
  beta1_ = best_b1;
  beta2_ = best_b2;
  residual_ = best_rss;
  fitted_ = true;
  epochs_cache_.valid = false;  // the curve changed; re-walk on next query
  return true;
}

double ConvergenceModel::PredictLoss(double step) const {
  OPTIMUS_CHECK(fitted_);
  const double denom = beta0_ * step + beta1_;
  const double normalized = denom > 1e-12 ? 1.0 / denom + beta2_ : 1e12;
  return normalized * norm_factor_;
}

int64_t ConvergenceModel::PredictTotalEpochs(double delta, int patience,
                                             int64_t steps_per_epoch,
                                             int64_t max_epochs) const {
  OPTIMUS_CHECK(fitted_);
  OPTIMUS_CHECK_GT(steps_per_epoch, 0);
  if (caching_ && epochs_cache_.valid && epochs_cache_.delta == delta &&
      epochs_cache_.patience == patience &&
      epochs_cache_.steps_per_epoch == steps_per_epoch &&
      epochs_cache_.max_epochs == max_epochs) {
    return epochs_cache_.total;
  }
  const int64_t total = EpochsToConvergence(
      [&](int64_t e) { return PredictLoss(static_cast<double>(e * steps_per_epoch)); },
      delta, patience, max_epochs);
  epochs_cache_ = {delta, steps_per_epoch, max_epochs, total, patience, true};
  return total;
}

double ConvergenceModel::PredictRemainingEpochs(double current_step, double delta,
                                                int patience, int64_t steps_per_epoch,
                                                int64_t max_epochs) const {
  if (!fitted_) {
    return kDefaultRemainingEpochs;
  }
  const int64_t total = PredictTotalEpochs(delta, patience, steps_per_epoch, max_epochs);
  const double done = current_step / static_cast<double>(steps_per_epoch);
  return std::max(0.0, static_cast<double>(total) - done);
}

}  // namespace optimus
