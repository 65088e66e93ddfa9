#include "src/solver/matrix.h"

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
  return CholeskyFactorN<0>(m, n, l);
}

bool CholeskySolve(const double* l, const double* b, size_t n, double* x) {
  OPTIMUS_CHECK_LE(n, kMaxSolveDims);
  return CholeskySolveN<0>(l, b, n, x);
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
