#include "src/perfmodel/curve_families.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/solver/matrix.h"
#include "src/solver/nnls.h"

namespace optimus {

const char* CurveFamilyName(CurveFamily family) {
  switch (family) {
    case CurveFamily::kInversePolynomial:
      return "inverse-polynomial";
    case CurveFamily::kExponential:
      return "exponential";
    case CurveFamily::kPowerLaw:
      return "power-law";
  }
  return "unknown";
}

double CurveFit::Predict(double step) const {
  switch (family) {
    case CurveFamily::kInversePolynomial: {
      const double denom = b0 * step + b1;
      return denom > 1e-12 ? 1.0 / denom + b2 : 1e12;
    }
    case CurveFamily::kExponential:
      return b1 * std::exp(-b0 * step) + b2;
    case CurveFamily::kPowerLaw:
      return b1 * std::pow(step + 1.0, -b0) + b2;
  }
  return 0.0;
}

namespace {

// RSS of a candidate fit over the samples (loss space).
double Rss(const CurveFit& fit, const std::vector<LossSample>& samples) {
  double rss = 0.0;
  for (const LossSample& s : samples) {
    const double e = fit.Predict(s.step) - s.loss;
    rss += e * e;
  }
  return rss;
}

// Inverse polynomial for fixed b2: 1/(l - b2) = b0*k + b1, NNLS.
bool SolveInverse(const std::vector<LossSample>& samples, double floor, CurveFit* fit) {
  Matrix a(samples.size(), 2);
  Vector b(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const double gap = samples[i].loss - floor;
    if (gap <= 1e-9) {
      return false;
    }
    a(i, 0) = samples[i].step;
    a(i, 1) = 1.0;
    b[i] = 1.0 / gap;
  }
  const NnlsResult r = SolveNnls(a, b);
  fit->b0 = r.x[0];
  fit->b1 = r.x[1];
  return fit->b0 > 0.0 || fit->b1 > 0.0;
}

// Re-solves the amplitude b1 in linear space given fixed b0 and floor, which
// removes the tail bias of the log-space fit: b1 = argmin sum(b1*g(k)+b2-l)^2
// has the closed form sum(g*(l-b2)) / sum(g^2).
template <typename Basis>
void RefineAmplitude(const std::vector<LossSample>& samples, double floor,
                     const Basis& basis, double* b1) {
  double num = 0.0;
  double den = 0.0;
  for (const LossSample& s : samples) {
    const double g = basis(s.step);
    num += g * (s.loss - floor);
    den += g * g;
  }
  if (den > 1e-12 && num > 0.0) {
    *b1 = num / den;
  }
}

// Exponential for fixed b2: ln(l - b2) = ln(b1) - b0*k, ordinary LS.
bool SolveExponential(const std::vector<LossSample>& samples, double floor,
                      CurveFit* fit) {
  Matrix a(samples.size(), 2);
  Vector b(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const double gap = samples[i].loss - floor;
    if (gap <= 1e-9) {
      return false;
    }
    a(i, 0) = -samples[i].step;
    a(i, 1) = 1.0;
    b[i] = std::log(gap);
  }
  Vector x;
  if (!SolveLeastSquares(a, b, &x)) {
    return false;
  }
  fit->b0 = std::max(0.0, x[0]);
  fit->b1 = std::exp(x[1]);
  if (fit->b0 <= 0.0 || !std::isfinite(fit->b1)) {
    return false;
  }
  const double b0 = fit->b0;
  RefineAmplitude(samples, floor,
                  [b0](double k) { return std::exp(-b0 * k); }, &fit->b1);
  return true;
}

// Power law for fixed b2: ln(l - b2) = ln(b1) - b0*ln(k + 1), ordinary LS.
bool SolvePowerLaw(const std::vector<LossSample>& samples, double floor, CurveFit* fit) {
  Matrix a(samples.size(), 2);
  Vector b(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const double gap = samples[i].loss - floor;
    if (gap <= 1e-9) {
      return false;
    }
    a(i, 0) = -std::log(samples[i].step + 1.0);
    a(i, 1) = 1.0;
    b[i] = std::log(gap);
  }
  Vector x;
  if (!SolveLeastSquares(a, b, &x)) {
    return false;
  }
  fit->b0 = std::max(0.0, x[0]);
  fit->b1 = std::exp(x[1]);
  if (fit->b0 <= 0.0 || !std::isfinite(fit->b1)) {
    return false;
  }
  const double b0 = fit->b0;
  RefineAmplitude(samples, floor,
                  [b0](double k) { return std::pow(k + 1.0, -b0); }, &fit->b1);
  return true;
}

}  // namespace

CurveFit FitCurveFamily(CurveFamily family, const std::vector<LossSample>& samples,
                        const CurveFitOptions& options) {
  CurveFit best;
  best.family = family;
  if (samples.size() < 3) {
    return best;
  }

  double min_loss = std::numeric_limits<double>::infinity();
  for (const LossSample& s : samples) {
    min_loss = std::min(min_loss, s.loss);
  }

  double lo = 0.0;
  double hi = std::max(0.0, min_loss * 0.999);
  double best_rss = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < options.refine_passes; ++pass) {
    double pass_best_floor = best.b2;
    for (int g = 0; g <= options.floor_grid; ++g) {
      const double floor = lo + (hi - lo) * g / options.floor_grid;
      CurveFit candidate;
      candidate.family = family;
      candidate.b2 = floor;
      bool ok = false;
      switch (family) {
        case CurveFamily::kInversePolynomial:
          ok = SolveInverse(samples, floor, &candidate);
          break;
        case CurveFamily::kExponential:
          ok = SolveExponential(samples, floor, &candidate);
          break;
        case CurveFamily::kPowerLaw:
          ok = SolvePowerLaw(samples, floor, &candidate);
          break;
      }
      if (!ok) {
        continue;
      }
      const double rss = Rss(candidate, samples);
      if (rss < best_rss) {
        best_rss = rss;
        candidate.rss = rss;
        candidate.valid = true;
        best = candidate;
        pass_best_floor = floor;
      }
    }
    const double width = (hi - lo) / options.floor_grid;
    lo = std::max(0.0, pass_best_floor - width);
    hi = std::min(std::max(0.0, min_loss * 0.999), pass_best_floor + width);
  }
  return best;
}

MultiFamilyConvergenceModel::MultiFamilyConvergenceModel(CurveFitOptions options)
    : options_(options),
      family_rss_(3, std::numeric_limits<double>::infinity()) {}

void MultiFamilyConvergenceModel::AddSample(double step, double loss) {
  if (!std::isfinite(loss) || loss <= 0.0) {
    return;
  }
  samples_.push_back({step, loss});
}

void MultiFamilyConvergenceModel::Reset() {
  samples_.clear();
  best_ = CurveFit();
  family_rss_.assign(3, std::numeric_limits<double>::infinity());
  norm_factor_ = 1.0;
}

bool MultiFamilyConvergenceModel::Fit() {
  if (static_cast<int>(samples_.size()) < min_samples_) {
    return best_.valid;
  }
  // One buffer per thread, reused by every refit on it (see
  // ConvergenceModel::Fit).
  static thread_local std::vector<LossSample> pts;
  RemoveOutliers(samples_, 5, &pts);
  norm_factor_ = NormalizeLosses(&pts);
  DownsampleInPlace(&pts, 512);

  CurveFit best;
  for (CurveFamily family : {CurveFamily::kInversePolynomial, CurveFamily::kExponential,
                             CurveFamily::kPowerLaw}) {
    const CurveFit fit = FitCurveFamily(family, pts, options_);
    family_rss_[static_cast<size_t>(family)] =
        fit.valid ? fit.rss : std::numeric_limits<double>::infinity();
    if (fit.valid && (!best.valid || fit.rss < best.rss)) {
      best = fit;
    }
  }
  if (best.valid) {
    best_ = best;
  }
  return best_.valid;
}

double MultiFamilyConvergenceModel::PredictLoss(double step) const {
  OPTIMUS_CHECK(best_.valid);
  return best_.Predict(step) * norm_factor_;
}

double MultiFamilyConvergenceModel::PredictRemainingEpochs(
    double current_step, double delta, int patience, int64_t steps_per_epoch,
    int64_t max_epochs) const {
  const int64_t total = PredictTotalEpochs(delta, patience, steps_per_epoch, max_epochs);
  const double done = current_step / static_cast<double>(steps_per_epoch);
  return std::max(0.0, static_cast<double>(total) - done);
}

int64_t MultiFamilyConvergenceModel::PredictTotalEpochs(double delta, int patience,
                                                        int64_t steps_per_epoch,
                                                        int64_t max_epochs) const {
  OPTIMUS_CHECK(best_.valid);
  OPTIMUS_CHECK_GT(delta, 0.0);
  OPTIMUS_CHECK_GE(patience, 1);
  int streak = 0;
  double prev = best_.Predict(0.0);
  for (int64_t e = 1; e <= max_epochs; ++e) {
    const double cur = best_.Predict(static_cast<double>(e * steps_per_epoch));
    const double rel_drop = prev > 0.0 ? (prev - cur) / prev : 0.0;
    if (rel_drop < delta) {
      ++streak;
      if (streak >= patience) {
        return e;
      }
    } else {
      streak = 0;
    }
    prev = cur;
  }
  return max_epochs;
}

}  // namespace optimus
