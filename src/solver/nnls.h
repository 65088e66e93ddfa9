// Non-negative least squares (NNLS).
//
// Optimus fits both its convergence curve (Eqn 1) and its resource-speed
// models (Eqns 3/4) with NNLS; the paper uses SciPy's solver, which implements
// the active-set algorithm of Lawson & Hanson ("Solving Least Squares
// Problems", 1974, ch. 23). This is a from-scratch implementation of the same
// algorithm: minimize ||A x - b||_2 subject to x >= 0.
//
// The solver operates on the normal equations (A^T A, A^T b): the inner
// subset solves were always normal-equation based (SolveLeastSquares), so the
// Gram form produces bit-identical solutions while letting callers accumulate
// A^T A / A^T b incrementally as samples arrive (GramSystem) — a refit is then
// O(k^2 * iterations) instead of O(n * k^2) in the sample count n.
//
// Every caller solves a handful of unknowns (convergence 2, speed 4 or 5,
// DL2 6), so the active-set loop and its subset Cholesky run in stack arrays
// of fixed capacity kMaxSolveDims (matrix.h): a solve allocates only its
// result vector. A system with more unknowns fails an OPTIMUS_CHECK.

#ifndef SRC_SOLVER_NNLS_H_
#define SRC_SOLVER_NNLS_H_

#include "src/solver/matrix.h"

namespace optimus {

struct NnlsResult {
  // True when the active-set iteration converged (it virtually always does for
  // the small, well-posed systems Optimus produces).
  bool converged = false;
  // The non-negative solution; all entries are >= 0 even on non-convergence
  // (the best iterate found is returned).
  Vector x;
  // ||A x - b||_2^2 at the returned solution. Exact when solving from a
  // dense A (SolveNnls); computed from the Gram identity
  // b^T b - 2 x^T A^T b + x^T A^T A x (clamped at 0) when solving from an
  // accumulated GramSystem.
  double residual_sum_of_squares = 0.0;
  // Number of outer active-set iterations performed.
  int iterations = 0;
};

struct NnlsOptions {
  // Maximum outer iterations; Lawson-Hanson needs at most ~3n in practice.
  int max_iterations = 300;
  // Dual-feasibility tolerance, relative to the gradient scale.
  double tolerance = 1e-10;
};

// Incrementally accumulated normal equations for a least-squares system.
// Adding rows one at a time in sample order reproduces Matrix::Gram() /
// Matrix::TransposeTimes() bit for bit (both sum products over rows in
// ascending order), so a GramSystem grown sample-by-sample solves identically
// to a fresh dense build over the same samples.
class GramSystem {
 public:
  explicit GramSystem(size_t dims)
      : ata_(dims, dims), atb_(dims, 0.0), dims_(dims) {}
  // Direct injection for callers that precompute the moments themselves
  // (e.g. the convergence model shares one A^T A across many right-hand
  // sides).
  GramSystem(Matrix ata, Vector atb, double btb, size_t rows)
      : ata_(std::move(ata)), atb_(std::move(atb)), btb_(btb), rows_(rows),
        dims_(atb_.size()) {}

  // Accumulates one observation row: features f and target y.
  void Add(const Vector& features, double target);
  void Reset();

  size_t dims() const { return dims_; }
  size_t rows() const { return rows_; }
  const Matrix& ata() const { return ata_; }
  const Vector& atb() const { return atb_; }
  double btb() const { return btb_; }

 private:
  Matrix ata_;
  Vector atb_;
  double btb_ = 0.0;
  size_t rows_ = 0;
  size_t dims_ = 0;
};

// Solves min ||A x - b|| s.t. x >= 0.
NnlsResult SolveNnls(const Matrix& a, const Vector& b, const NnlsOptions& options = {});

// Same active-set algorithm on pre-accumulated normal equations. Produces the
// same solution as SolveNnls over the samples the GramSystem was built from
// (see GramSystem); residual_sum_of_squares uses the Gram identity.
NnlsResult SolveNnlsGram(const GramSystem& gram, const NnlsOptions& options = {});

// Raw-moment variant for callers that share one A^T A across many right-hand
// sides (e.g. the convergence model's beta2 grid): skips wrapping the moments
// in a GramSystem per solve. atb.size() gives the dimensionality; solutions
// are identical to the GramSystem overload.
NnlsResult SolveNnlsGram(const Matrix& ata, const Vector& atb, double btb,
                         const NnlsOptions& options = {});

}  // namespace optimus

#endif  // SRC_SOLVER_NNLS_H_
