#include "src/solver/matrix.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace optimus {

Matrix Matrix::Gram() const {
  Matrix g(cols_, cols_);
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = i; j < cols_; ++j) {
      double sum = 0.0;
      for (size_t r = 0; r < rows_; ++r) {
        sum += (*this)(r, i) * (*this)(r, j);
      }
      g(i, j) = sum;
      g(j, i) = sum;
    }
  }
  return g;
}

Vector Matrix::TransposeTimes(const Vector& v) const {
  OPTIMUS_CHECK_EQ(v.size(), rows_);
  Vector out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      out[c] += (*this)(r, c) * v[r];
    }
  }
  return out;
}

Vector Matrix::Times(const Vector& x) const {
  OPTIMUS_CHECK_EQ(x.size(), cols_);
  Vector out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) {
      sum += (*this)(r, c) * x[c];
    }
    out[r] = sum;
  }
  return out;
}

Matrix Matrix::SelectColumns(const std::vector<size_t>& columns) const {
  Matrix out(rows_, columns.size());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t i = 0; i < columns.size(); ++i) {
      OPTIMUS_CHECK_LT(columns[i], cols_);
      out(r, i) = (*this)(r, columns[i]);
    }
  }
  return out;
}

bool CholeskyFactor(const double* m, size_t n, double* l) {
  OPTIMUS_CHECK_LE(n, kMaxSolveDims)
      << "SolveSpd supports at most " << kMaxSolveDims << " unknowns, got " << n;

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

bool CholeskySolve(const double* l, const double* b, size_t n, double* x) {
  OPTIMUS_CHECK_LE(n, kMaxSolveDims);
  // Forward solve L y = b.
  double y[kMaxSolveDims];
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

bool SolveSpd(const double* m, const double* b, size_t n, double* x) {
  double l[kMaxSolveDims * kMaxSolveDims];
  return CholeskyFactor(m, n, l) && CholeskySolve(l, b, n, x);
}

bool SolveSpd(const Matrix& m, const Vector& b, Vector* x) {
  const size_t n = m.rows();
  OPTIMUS_CHECK_EQ(m.cols(), n);
  OPTIMUS_CHECK_EQ(b.size(), n);
  OPTIMUS_CHECK(x != nullptr);
  x->resize(n);
  return SolveSpd(m.data(), b.data(), n, x->data());
}

bool SolveLeastSquares(const Matrix& a, const Vector& b, Vector* x) {
  OPTIMUS_CHECK_EQ(b.size(), a.rows());
  return SolveSpd(a.Gram(), a.TransposeTimes(b), x);
}

double ResidualSumOfSquares(const Matrix& a, const Vector& x, const Vector& b) {
  const Vector pred = a.Times(x);
  double rss = 0.0;
  for (size_t r = 0; r < b.size(); ++r) {
    const double e = pred[r] - b[r];
    rss += e * e;
  }
  return rss;
}

double Dot(const Vector& a, const Vector& b) {
  OPTIMUS_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

}  // namespace optimus
