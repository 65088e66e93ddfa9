#include "src/solver/nnls.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace optimus {

void GramSystem::Add(const double* features, size_t count, double target) {
  OPTIMUS_CHECK_EQ(count, dims_);
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

// Every caller with two unknowns (SolveLanes' fallback lanes included) gets
// the loop compiled at n = 2. The instantiations differ only in
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

// The common path of a two-unknown solve, in SolveN<2>'s operations:
//   1. At x = 0, w = A^T b - A^T A x picks the slope: w0 > tol, w1 <= w0.
//   2. Iteration 1 solves {0} with the {0} factor: z = (u / l) / l, finite
//      and > 0, so x = (z, 0).
//   3. w1 at that x is <= tol: done after 1 iteration. Otherwise iteration 2
//      solves {0, 1} with its factor; both entries finite and > 0, so x is
//      that solution after 2 iterations, and no variable is left to enter.
// The first loop evaluates every step for every lane, with no branch, and
// marks a lane that leaves the path with x0 = -1 (a common-path x0 is > 0).
// The second loop hands each marked lane to SolveN<2>. A lane on the path
// reports its iterations through its x1: 0 after step 3's stop, > 0 after
// iteration 2.
int64_t NnlsGramSolver::SolveLanes(const double* u, const double* v, size_t lanes,
                                   double* x0, double* x1) {
  OPTIMUS_CHECK_EQ(n_, 2u);
  // A cap below 2 ends the path early; every lane then runs SolveN<2>.
  if (options_.max_iterations >= 2) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const size_t slope[1] = {0};
    const size_t both[2] = {0, 1};
    const SubsetFactor& f1 = FactorFor<2>(slope, 1);
    const SubsetFactor& f2 = FactorFor<2>(both, 2);
    // A failed factor's entries may be unwritten: read 1.0 instead, and
    // send every lane that needs the factor to SolveN<2>.
    const bool ok1 = f1.ok;
    const bool ok2 = f2.ok;
    const double l = ok1 ? f1.l[0] : 1.0;
    const double l00 = ok2 ? f2.l[0] : 1.0;
    const double l10 = ok2 ? f2.l[2] : 1.0;
    const double l11 = ok2 ? f2.l[3] : 1.0;
    const double a00 = ata_[0];
    const double a01 = ata_[1];
    const double a10 = ata_[2];
    const double a11 = ata_[3];
    // A^T A x at x = 0, summed as SolveN sums it.
    const double dot0 = 0.0 + a00 * 0.0 + a01 * 0.0;
    const double dot1 = 0.0 + a10 * 0.0 + a11 * 0.0;
    const double tolerance = options_.tolerance;
    for (size_t k = 0; k < lanes; ++k) {
      const double a0 = u[k];
      const double a1 = v[k];
      // SolveN's w > tol, with tol = tolerance * std::max(grad_scale, 1.0).
      // std::max(g, 1.0) is g < 1.0 ? 1.0 : g, and tolerance * 1.0 is
      // tolerance, so both compares are made and one is kept. (A select
      // between the two tols lets GCC move the multiply under a branch,
      // which stops the loop from vectorizing.)
      const double grad_scale = std::max(std::max(0.0, std::abs(a0)), std::abs(a1));
      const bool unit_scale = grad_scale < 1.0;
      const double scaled = tolerance * grad_scale;
      const auto above_tol = [&](double w) {
        return (unit_scale & (w > tolerance)) | (!unit_scale & (w > scaled));
      };
      const double w0 = a0 - dot0;
      const bool slope_enters = above_tol(w0) & !(a1 - dot1 > w0);
      // {0}: CholeskySolveN<1>.
      const double z = a0 / l / l;
      const bool z_ok = ok1 & (z > 0.0) & (z < kInf);
      const bool slope_only = !above_tol(a1 - (0.0 + a10 * z + a11 * 0.0));
      // {0, 1}: CholeskySolveN<2>'s forward and back substitution.
      const double y0 = a0 / l00;
      const double y1 = (a1 - l10 * y0) / l11;
      const double s1 = y1 / l11;
      const double s0 = (y0 - l10 * s1) / l00;
      const bool s_ok = ok2 & (s0 > 0.0) & (s0 < kInf) & (s1 > 0.0) & (s1 < kInf);
      const bool on_path = slope_enters & z_ok & (slope_only | s_ok);
      x0[k] = on_path ? (slope_only ? z : s0) : -1.0;
      x1[k] = slope_only ? 0.0 : s1;
    }
  } else {
    std::fill_n(x0, lanes, -1.0);
  }
  int64_t iterations = 0;
  for (size_t k = 0; k < lanes; ++k) {
    if (x0[k] > 0.0) {
      iterations += x1[k] > 0.0 ? 2 : 1;
      continue;
    }
    const double atb[2] = {u[k], v[k]};
    double x[2];
    iterations += SolveN<2>(atb, x).iterations;
    x0[k] = x[0];
    x1[k] = x[1];
  }
  return iterations;
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
  for (size_t r = 0; r < a.rows(); ++r) {
    gram.Add(a.data() + r * a.cols(), a.cols(), b[r]);
  }
  NnlsResult result = SolveNnlsGram(gram, options);
  // With the dense A at hand, report the exact residual.
  result.residual_sum_of_squares = ResidualSumOfSquares(a, result.x, b);
  return result;
}

}  // namespace optimus
