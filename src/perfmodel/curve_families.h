// Multi-family loss-curve fitting (§7 "Convergence estimation" extension).
//
// Eqn 1's 1/x family fits SGD-style losses, but the paper notes that some
// models (e.g., A3C) follow curves it cannot describe and points at
// SLAQ-style fitting of alternative function families. Three families compete:
//
//   inverse polynomial:  l = 1/(b0*k + b1) + b2          (Optimus's Eqn 1)
//   exponential decay:   l = b1 * exp(-b0*k) + b2
//   power law:           l = b1 * (k + 1)^(-b0) + b2
//
// The inverse polynomial is the job's own ConvergenceModel fit.
// FitCurveFamily fits the other two, each by a refining grid over the floor
// b2 (the same grid as Eqn 1's beta2) with a log-linear solve for the
// remaining parameters. ConvergenceModel::SelectFamily runs both on the
// points of its last fit and keeps whichever of the three has the smallest
// residual.

#ifndef SRC_PERFMODEL_CURVE_FAMILIES_H_
#define SRC_PERFMODEL_CURVE_FAMILIES_H_

#include <cstddef>
#include <vector>

#include "src/perfmodel/preprocess.h"

namespace optimus {

// The floor grid every fit refines: kFloorGrid + 1 points over
// [0, 0.999 * min loss], narrowed around the best kFloorRefinePasses times.
inline constexpr int kFloorGrid = 24;
inline constexpr int kFloorRefinePasses = 3;

enum class CurveFamily {
  kInversePolynomial,
  kExponential,
  kPowerLaw,
};
inline constexpr size_t kNumCurveFamilies = 3;

const char* CurveFamilyName(CurveFamily family);

struct CurveFit {
  bool valid = false;
  CurveFamily family = CurveFamily::kInversePolynomial;
  // (b0, b1, b2) in normalized-loss space.
  double b0 = 0.0;
  double b1 = 0.0;
  double b2 = 0.0;
  // Residual sum of squares over the fitted points (normalized space).
  double rss = 0.0;

  // Normalized loss prediction at a step.
  double Predict(double step) const;
};

// Fits the exponential or power-law family to preprocessed, normalized
// samples. The inverse polynomial is ConvergenceModel's fit.
CurveFit FitCurveFamily(CurveFamily family, const std::vector<LossSample>& samples);

}  // namespace optimus

#endif  // SRC_PERFMODEL_CURVE_FAMILIES_H_
