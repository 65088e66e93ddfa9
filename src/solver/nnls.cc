#include "src/solver/nnls.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace optimus {

void GramSystem::Add(const Vector& features, double target) {
  OPTIMUS_CHECK_EQ(features.size(), dims_);
  for (size_t i = 0; i < dims_; ++i) {
    for (size_t j = i; j < dims_; ++j) {
      const double v = ata_(i, j) + features[i] * features[j];
      ata_(i, j) = v;
      ata_(j, i) = v;
    }
    atb_[i] += features[i] * target;
  }
  btb_ += target * target;
  ++rows_;
}

void GramSystem::Reset() {
  ata_ = Matrix(dims_, dims_);
  atb_.assign(dims_, 0.0);
  btb_ = 0.0;
  rows_ = 0;
}

NnlsGramSolver::NnlsGramSolver(const double* ata, size_t n, const NnlsOptions& options)
    : n_(n), options_(options) {
  OPTIMUS_CHECK_LE(n, kMaxSolveDims)
      << "NNLS supports at most " << kMaxSolveDims << " unknowns, got " << n;
  std::copy(ata, ata + n * n, ata_);
}

namespace {

// Cholesky factor and solve of a k-unknown passive subset. Under a solver of
// compile-time size kN = 2, k (1 or 2) becomes a compile-time constant too.
template <size_t kN>
bool FactorSubset(const double* sub, size_t k, double* l) {
  if constexpr (kN == 2) {
    return k == 1 ? CholeskyFactorN<1>(sub, 1, l) : CholeskyFactorN<2>(sub, 2, l);
  } else {
    return CholeskyFactorN<0>(sub, k, l);
  }
}

template <size_t kN>
bool SolveSubset(const double* l, const double* rhs, size_t k, double* z) {
  if constexpr (kN == 2) {
    return k == 1 ? CholeskySolveN<1>(l, rhs, 1, z) : CholeskySolveN<2>(l, rhs, 2, z);
  } else {
    return CholeskySolveN<0>(l, rhs, k, z);
  }
}

}  // namespace

template <size_t kN>
const NnlsGramSolver::SubsetFactor& NnlsGramSolver::FactorFor(const size_t* passive,
                                                             size_t k) {
  const size_t n = kN > 0 ? kN : n_;
  // Key: the subset size, then each index in passive order (4 bits apiece).
  // The order matters: the subset matrix is laid out in passive order, and
  // its factor's rounding depends on that layout.
  uint64_t key = k;
  for (size_t i = 0; i < k; ++i) {
    key |= static_cast<uint64_t>(passive[i]) << (4 * (i + 1));
  }
  size_t slot;
  if constexpr (kN == 2) {
    // {0} -> 0, {1} -> 1, {0, 1} -> 2, {1, 0} -> 3.
    slot = k == 1 ? passive[0] : 2 + passive[0];
    if (factors_[slot].key == key) {
      return factors_[slot];
    }
  } else {
    for (size_t s = 0; s < num_factors_; ++s) {
      if (factors_[s].key == key) {
        return factors_[s];
      }
    }
    slot = num_factors_;
    if (num_factors_ < kMaxFactors) {
      ++num_factors_;
    } else {
      slot = next_evict_;
      next_evict_ = (next_evict_ + 1) % kMaxFactors;
    }
  }
  // The subset system is exactly what SelectColumns + Gram of a dense A would
  // produce (same sums in the same order), so solutions match the dense path
  // bit for bit.
  SubsetFactor& f = factors_[slot];
  double sub[kMaxSolveDims * kMaxSolveDims];
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      sub[i * k + j] = ata_[passive[i] * n + passive[j]];
    }
  }
  f.key = key;
  f.ok = FactorSubset<kN>(sub, k, f.l);
  return f;
}

template <size_t kN>
bool NnlsGramSolver::SolveOnSubset(const double* atb, const size_t* passive, size_t k,
                                   double* full) {
  const size_t n = kN > 0 ? kN : n_;
  const SubsetFactor& f = FactorFor<kN>(passive, k);
  if (!f.ok) {
    return false;
  }
  double rhs[kMaxSolveDims];
  double z[kMaxSolveDims];
  for (size_t i = 0; i < k; ++i) {
    rhs[i] = atb[passive[i]];
  }
  if (!SolveSubset<kN>(f.l, rhs, k, z)) {
    return false;
  }
  std::fill(full, full + n, 0.0);
  for (size_t i = 0; i < k; ++i) {
    full[passive[i]] = z[i];
  }
  return true;
}

// Every caller with two unknowns (the convergence model's lanes, ~75 per
// refit) gets the loop compiled at n = 2. The instantiations differ only in
// whether the loop bounds are constants, so they compute the same bits.
NnlsGramSolver::Solution NnlsGramSolver::Solve(const double* atb, double* x) {
  return n_ == 2 ? SolveN<2>(atb, x) : SolveN<0>(atb, x);
}

template <size_t kN>
NnlsGramSolver::Solution NnlsGramSolver::SolveN(const double* atb, double* x_out) {
  constexpr size_t kCap = kN > 0 ? kN : kMaxSolveDims;
  const size_t n = kN > 0 ? kN : n_;
  const double* ata = ata_;

  bool in_passive[kCap] = {};
  size_t passive[kCap];
  size_t num_passive = 0;

  // Gradient scale for the relative dual tolerance (the gradient at x = 0 is
  // A^T b).
  double grad_scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    grad_scale = std::max(grad_scale, std::abs(atb[i]));
  }
  const double tol = options_.tolerance * std::max(grad_scale, 1.0);

  double x[kCap] = {};
  double w[kCap];
  double z[kCap];
  int iter = 0;
  while (iter < options_.max_iterations) {
    // Dual vector w = A^T b - A^T A x (== A^T (b - A x)).
    for (size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = 0; j < n; ++j) {
        dot += ata[i * n + j] * x[j];
      }
      w[i] = atb[i] - dot;
    }

    // Pick the most violated (largest-gradient) zero variable.
    double best_w = tol;
    size_t best_idx = n;
    for (size_t j = 0; j < n; ++j) {
      if (!in_passive[j] && w[j] > best_w) {
        best_w = w[j];
        best_idx = j;
      }
    }
    if (best_idx == n) {
      break;  // KKT conditions satisfied.
    }

    in_passive[best_idx] = true;
    passive[num_passive++] = best_idx;

    // Inner loop: ensure the passive-set least-squares solution is feasible.
    while (true) {
      ++iter;
      if (!SolveOnSubset<kN>(atb, passive, num_passive, z)) {
        // Numerically singular subset: drop the most recently added column.
        in_passive[passive[--num_passive]] = false;
        break;
      }

      bool feasible = true;
      for (size_t q = 0; q < num_passive; ++q) {
        if (z[passive[q]] <= 0.0) {
          feasible = false;
          break;
        }
      }
      if (feasible) {
        std::copy(z, z + n, x);
        break;
      }

      // Step from x toward z as far as feasibility allows.
      double alpha = std::numeric_limits<double>::infinity();
      for (size_t q = 0; q < num_passive; ++q) {
        const size_t j = passive[q];
        if (z[j] <= 0.0) {
          const double denom = x[j] - z[j];
          if (denom > 0.0) {
            alpha = std::min(alpha, x[j] / denom);
          }
        }
      }
      if (!std::isfinite(alpha)) {
        alpha = 0.0;
      }
      for (size_t j = 0; j < n; ++j) {
        x[j] += alpha * (z[j] - x[j]);
      }

      // Move variables that hit zero back to the active set, keeping the
      // passive order of the rest.
      size_t kept = 0;
      for (size_t q = 0; q < num_passive; ++q) {
        const size_t j = passive[q];
        if (x[j] > tol * 1e-4 && x[j] > 0.0) {
          passive[kept++] = j;
        } else {
          x[j] = 0.0;
          in_passive[j] = false;
        }
      }
      num_passive = kept;
      if (num_passive == 0) {
        break;
      }
      if (iter >= options_.max_iterations) {
        break;
      }
    }
    if (iter >= options_.max_iterations) {
      break;
    }
  }

  Solution solution;
  solution.converged = iter < options_.max_iterations;
  solution.iterations = iter;
  for (size_t i = 0; i < n; ++i) {
    x_out[i] = std::max(x[i], 0.0);
  }
  return solution;
}

NnlsResult SolveNnlsGram(const GramSystem& gram, const NnlsOptions& options) {
  return SolveNnlsGram(gram.ata(), gram.atb(), gram.btb(), options);
}

NnlsResult SolveNnlsGram(const Matrix& ata, const Vector& atb, double btb,
                         const NnlsOptions& options) {
  const size_t n = atb.size();
  OPTIMUS_CHECK_LE(n, kMaxSolveDims)
      << "NNLS supports at most " << kMaxSolveDims << " unknowns, got " << n;
  OPTIMUS_CHECK(ata.rows() == n && ata.cols() == n)
      << "A^T A is " << ata.rows() << "x" << ata.cols() << ", A^T b has " << n;
  NnlsGramSolver solver(ata.data(), n, options);
  NnlsResult result;
  result.x.resize(n);
  const NnlsGramSolver::Solution s = solver.Solve(atb.data(), result.x.data());
  result.converged = s.converged;
  result.iterations = s.iterations;
  // ||Ax - b||^2 = b^T b - 2 x^T A^T b + x^T A^T A x; the Gram identity can
  // dip below zero by rounding on near-perfect fits, so clamp.
  const Vector& x = result.x;
  double quad = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < n; ++j) {
      row += ata(i, j) * x[j];
    }
    quad += x[i] * row;
  }
  double xtb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    xtb += atb[i] * x[i];
  }
  result.residual_sum_of_squares = std::max(0.0, btb - 2.0 * xtb + quad);
  return result;
}

NnlsResult SolveNnls(const Matrix& a, const Vector& b, const NnlsOptions& options) {
  OPTIMUS_CHECK_EQ(b.size(), a.rows());
  GramSystem gram(a.cols());
  Vector features(a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      features[c] = a(r, c);
    }
    gram.Add(features, b[r]);
  }
  NnlsResult result = SolveNnlsGram(gram, options);
  // With the dense A at hand, report the exact residual.
  result.residual_sum_of_squares = ResidualSumOfSquares(a, result.x, b);
  return result;
}

}  // namespace optimus
