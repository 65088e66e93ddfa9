// Minimal dense matrix/vector math used by the least-squares solvers.
//
// The fitting problems in Optimus are tiny (tens-to-thousands of rows, at most
// six columns), so a straightforward row-major dense matrix with
// normal-equation solves is both sufficient and easy to audit. The Cholesky
// solve works in fixed-capacity stack storage (kMaxSolveDims unknowns), so a
// refit allocates nothing per solve.

#ifndef SRC_SOLVER_MATRIX_H_
#define SRC_SOLVER_MATRIX_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace optimus {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  // Row-major storage, rows() * cols() entries.
  const double* data() const { return data_.data(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  // Returns A^T * A (cols x cols).
  Matrix Gram() const;

  // Returns A^T * v (length cols).
  Vector TransposeTimes(const Vector& v) const;

  // Returns A * x (length rows).
  Vector Times(const Vector& x) const;

  // Returns the submatrix keeping only the given columns, in order.
  Matrix SelectColumns(const std::vector<size_t>& columns) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// Largest system SolveSpd and the NNLS solvers accept. Every caller solves at
// most six unknowns (convergence 2, speed 4 or 5, DL2 6); a larger system
// fails an OPTIMUS_CHECK.
inline constexpr size_t kMaxSolveDims = 8;

// Cholesky factorization M + ridge*I = L L^T of the square symmetric
// positive-(semi)definite `m` (n x n row-major), with a small diagonal ridge
// scaled to M's largest diagonal for numerical safety. Writes the lower
// triangle of `l` (n x n row-major). Returns false if the system is too
// ill-conditioned to factor. Requires n <= kMaxSolveDims.
bool CholeskyFactor(const double* m, size_t n, double* l);

// Solves L L^T x = b for a CholeskyFactor output `l`; `b` and `x` have n
// entries. Returns false if the solution is not finite.
bool CholeskySolve(const double* l, const double* b, size_t n, double* x);

// The two steps above with bodies written once for either a runtime size
// (kN = 0, use `n`) or a size fixed at compile time (kN > 0, `n` ignored).
// A fixed size only turns the loop bounds into constants: the operations and
// their order are the same, so both forms give the same bits.
template <size_t kN>
inline bool CholeskyFactorN(const double* m, size_t n, double* l) {
  if constexpr (kN > 0) {
    n = kN;
  }
  // Ridge scaled to the matrix magnitude keeps the Cholesky stable when the
  // fitting features are nearly collinear (common early in online fitting).
  double max_diag = 0.0;
  for (size_t i = 0; i < n; ++i) {
    max_diag = std::max(max_diag, std::abs(m[i * n + i]));
  }
  const double ridge = max_diag * 1e-12 + 1e-300;

  // m = L L^T, with L row-major.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = m[i * n + j];
      if (i == j) {
        sum += ridge;
      }
      for (size_t k = 0; k < j; ++k) {
        sum -= l[i * n + k] * l[j * n + k];
      }
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return false;
        }
        l[i * n + i] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
  return true;
}

template <size_t kN>
inline bool CholeskySolveN(const double* l, const double* b, size_t n, double* x) {
  if constexpr (kN > 0) {
    n = kN;
  }
  // Forward solve L y = b.
  double y[kN > 0 ? kN : kMaxSolveDims];
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) {
      sum -= l[i * n + k] * y[k];
    }
    y[i] = sum / l[i * n + i];
  }

  // Back solve L^T x = y.
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) {
      sum -= l[k * n + ii] * x[k];
    }
    x[ii] = sum / l[ii * n + ii];
  }
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) {
      return false;
    }
  }
  return true;
}

// CholeskyFactor followed by CholeskySolve: solves M x = b, writing `x` only
// once the factorization succeeds. Returns false if either step fails.
bool SolveSpd(const double* m, const double* b, size_t n, double* x);

// The same solve on a Matrix and Vector.
bool SolveSpd(const Matrix& m, const Vector& b, Vector* x);

// Ordinary least squares: minimizes ||A x - b||_2 via the normal equations.
// Returns false on (near-)singular A^T A.
bool SolveLeastSquares(const Matrix& a, const Vector& b, Vector* x);

// Residual sum of squares ||A x - b||_2^2.
double ResidualSumOfSquares(const Matrix& a, const Vector& x, const Vector& b);

// Euclidean dot product; vectors must have equal length.
double Dot(const Vector& a, const Vector& b);

}  // namespace optimus

#endif  // SRC_SOLVER_MATRIX_H_
