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
// DL2 6), so the active-set loop and its subset Cholesky run in fixed-capacity
// storage of kMaxSolveDims (matrix.h). NnlsGramSolver allocates nothing; the
// NnlsResult wrappers allocate only their result vector. A system with more
// unknowns fails an OPTIMUS_CHECK.

#ifndef SRC_SOLVER_NNLS_H_
#define SRC_SOLVER_NNLS_H_

#include <cstddef>
#include <cstdint>

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

  // Accumulates one observation row: `count` features (== dims()) and its
  // target.
  void Add(const double* features, size_t count, double target);
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

// Lawson-Hanson active-set NNLS on one fixed A^T A, reusable across many
// right-hand sides (e.g. the convergence model's beta2 sweep: one SolveLanes
// call per refinement pass, up to 25 lanes, against one 2x2 Gram). Each passive subset's Cholesky factor is
// computed on first use and kept in a slot (see kMaxFactors), so repeated
// solves refactor nothing while the subsets fit the slots. A cached factor
// is the same arithmetic on the same subset matrix as a fresh one, so every
// solve is bit-identical to a solver built for it alone. A 2-unknown solver
// runs the same loop compiled at that size (see Solve).
class NnlsGramSolver {
 public:
  // `ata` is n x n row-major and is copied; requires n <= kMaxSolveDims.
  NnlsGramSolver(const double* ata, size_t n, const NnlsOptions& options = {});

  struct Solution {
    bool converged = false;
    int iterations = 0;
  };

  // Solves for the right-hand side A^T b = `atb` (n entries), writing the
  // non-negative solution into `x` (n entries). The residual needs b^T b and
  // is left to the caller (SolveNnlsGram computes it; the convergence model
  // never reads it).
  Solution Solve(const double* atb, double* x);

  // Solves `lanes` two-unknown right-hand sides A^T b = (u[k], v[k]),
  // writing each solution to (x0[k], x1[k]) with the bits Solve gives it.
  // Returns the lanes' summed iteration count. Requires n == 2; the outputs
  // must not alias the inputs. A first, branch-free loop takes every lane
  // along the common path (the slope enters, then the intercept, with no
  // step back); every lane that leaves it is re-solved by Solve's own loop.
  int64_t SolveLanes(const double* u, const double* v, size_t lanes, double* x0,
                     double* x1);

 private:
  // Slots for cached subset factors. A 2-unknown solver has exactly four
  // passive subsets, {0}, {1}, {0, 1} and {1, 0}, and keeps them in slots 0-3
  // (direct-mapped, so no search). A larger one keeps up to kMaxFactors
  // distinct subsets and then replaces the oldest.
  static constexpr size_t kMaxFactors = 16;
  struct SubsetFactor {
    uint64_t key = 0;  // subset size and its indices in passive order; 0 = empty
    bool ok;           // false when the subset was too ill-conditioned to factor
    double l[kMaxSolveDims * kMaxSolveDims];
  };

  // The Lawson-Hanson loop and its subset solves, written once: kN = 2 fixes
  // the size at compile time, kN = 0 reads it from n_.
  template <size_t kN>
  Solution SolveN(const double* atb, double* x);
  template <size_t kN>
  const SubsetFactor& FactorFor(const size_t* passive, size_t k);
  // Least squares on the passive subset; entries outside it are zero in the
  // n-entry `full`. False when the subset cannot be solved.
  template <size_t kN>
  bool SolveOnSubset(const double* atb, const size_t* passive, size_t k, double* full);

  size_t n_;
  NnlsOptions options_;
  double ata_[kMaxSolveDims * kMaxSolveDims];
  SubsetFactor factors_[kMaxFactors];
  size_t num_factors_ = 0;
  size_t next_evict_ = 0;
};

// Solves min ||A x - b|| s.t. x >= 0.
NnlsResult SolveNnls(const Matrix& a, const Vector& b, const NnlsOptions& options = {});

// One NnlsGramSolver solve on pre-accumulated normal equations. Produces the
// same solution as SolveNnls over the samples the GramSystem was built from
// (see GramSystem); residual_sum_of_squares uses the Gram identity
// b^T b - 2 x^T A^T b + x^T A^T A x, clamped at 0.
NnlsResult SolveNnlsGram(const GramSystem& gram, const NnlsOptions& options = {});

// The same on raw moments; atb.size() gives the dimensionality.
NnlsResult SolveNnlsGram(const Matrix& ata, const Vector& atb, double btb,
                         const NnlsOptions& options = {});

}  // namespace optimus

#endif  // SRC_SOLVER_NNLS_H_
