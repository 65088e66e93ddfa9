// Minimal dense matrix/vector math used by the least-squares solvers.
//
// The fitting problems in Optimus are tiny (tens-to-thousands of rows, at most
// six columns), so a straightforward row-major dense matrix with
// normal-equation solves is both sufficient and easy to audit. The Cholesky
// solve works in fixed-capacity stack storage (kMaxSolveDims unknowns), so a
// refit allocates nothing per solve.

#ifndef SRC_SOLVER_MATRIX_H_
#define SRC_SOLVER_MATRIX_H_

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
