#include "src/perfmodel/curve_families.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/solver/matrix.h"

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

// The exponential and the power law are linear in log space for a fixed
// floor b2: ln(l - b2) = ln(b1) - b0*x(k), with x(k) = k for the exponential
// and ln(k + 1) for the power law. Ordinary LS gives (b0, ln b1); b1 is then
// re-solved in loss space, which removes the tail bias of the log-space fit:
// b1 = argmin sum(b1*g(k) + b2 - l)^2 has the closed form
// sum(g*(l - b2)) / sum(g^2), with g the family's curve at b1 = 1, b2 = 0.
bool SolveLogLinear(const std::vector<LossSample>& samples, double floor,
                    CurveFit* fit) {
  const bool power_law = fit->family == CurveFamily::kPowerLaw;
  Matrix a(samples.size(), 2);
  Vector b(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const double gap = samples[i].loss - floor;
    if (gap <= 1e-9) {
      return false;
    }
    a(i, 0) = power_law ? -std::log(samples[i].step + 1.0) : -samples[i].step;
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
  CurveFit unit = *fit;
  unit.b1 = 1.0;
  unit.b2 = 0.0;
  double num = 0.0;
  double den = 0.0;
  for (const LossSample& s : samples) {
    const double g = unit.Predict(s.step);
    num += g * (s.loss - floor);
    den += g * g;
  }
  if (den > 1e-12 && num > 0.0) {
    fit->b1 = num / den;
  }
  return true;
}

}  // namespace

CurveFit FitCurveFamily(CurveFamily family, const std::vector<LossSample>& samples) {
  OPTIMUS_CHECK(family != CurveFamily::kInversePolynomial)
      << "the inverse polynomial is ConvergenceModel's fit";
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
  for (int pass = 0; pass < kFloorRefinePasses; ++pass) {
    double pass_best_floor = best.b2;
    for (int g = 0; g <= kFloorGrid; ++g) {
      const double floor = lo + (hi - lo) * g / kFloorGrid;
      CurveFit candidate;
      candidate.family = family;
      candidate.b2 = floor;
      if (!SolveLogLinear(samples, floor, &candidate)) {
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
    const double width = (hi - lo) / kFloorGrid;
    lo = std::max(0.0, pass_best_floor - width);
    hi = std::min(std::max(0.0, min_loss * 0.999), pass_best_floor + width);
  }
  return best;
}

}  // namespace optimus
