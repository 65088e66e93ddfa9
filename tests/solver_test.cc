#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/solver/matrix.h"
#include "src/solver/nnls.h"

namespace optimus {
namespace {

TEST(MatrixTest, TimesAndTransposeTimes) {
  Matrix a(2, 3);
  // [1 2 3; 4 5 6]
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  Vector x = {1.0, 1.0, 1.0};
  Vector ax = a.Times(x);
  EXPECT_DOUBLE_EQ(ax[0], 6.0);
  EXPECT_DOUBLE_EQ(ax[1], 15.0);

  Vector v = {1.0, 1.0};
  Vector atv = a.TransposeTimes(v);
  EXPECT_DOUBLE_EQ(atv[0], 5.0);
  EXPECT_DOUBLE_EQ(atv[1], 7.0);
  EXPECT_DOUBLE_EQ(atv[2], 9.0);
}

TEST(MatrixTest, GramIsSymmetric) {
  Matrix a(3, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  a(2, 0) = 5;
  a(2, 1) = 6;
  Matrix g = a.Gram();
  EXPECT_DOUBLE_EQ(g(0, 1), g(1, 0));
  EXPECT_DOUBLE_EQ(g(0, 0), 1 + 9 + 25);
  EXPECT_DOUBLE_EQ(g(1, 1), 4 + 16 + 36);
}

TEST(MatrixTest, SelectColumns) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  Matrix s = a.SelectColumns({2, 0});
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3);
  EXPECT_DOUBLE_EQ(s(0, 1), 1);
  EXPECT_DOUBLE_EQ(s(1, 0), 6);
}

TEST(SolveSpdTest, SolvesDiagonalSystem) {
  Matrix m(2, 2);
  m(0, 0) = 2.0;
  m(1, 1) = 4.0;
  Vector b = {2.0, 8.0};
  Vector x;
  ASSERT_TRUE(SolveSpd(m, b, &x));
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(SolveLeastSquaresTest, RecoversExactSolution) {
  // y = 2*x1 + 3*x2 on 4 points.
  Matrix a(4, 2);
  Vector b(4);
  const double xs[4][2] = {{1, 0}, {0, 1}, {1, 1}, {2, 1}};
  for (int i = 0; i < 4; ++i) {
    a(i, 0) = xs[i][0];
    a(i, 1) = xs[i][1];
    b[i] = 2 * xs[i][0] + 3 * xs[i][1];
  }
  Vector x;
  ASSERT_TRUE(SolveLeastSquares(a, b, &x));
  EXPECT_NEAR(x[0], 2.0, 1e-8);
  EXPECT_NEAR(x[1], 3.0, 1e-8);
  EXPECT_NEAR(ResidualSumOfSquares(a, x, b), 0.0, 1e-10);
}

TEST(NnlsTest, MatchesUnconstrainedWhenSolutionPositive) {
  Matrix a(5, 2);
  Vector b(5);
  for (int i = 0; i < 5; ++i) {
    a(i, 0) = i + 1.0;
    a(i, 1) = 1.0;
    b[i] = 1.5 * (i + 1.0) + 0.7;
  }
  NnlsResult result = SolveNnls(a, b);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.5, 1e-8);
  EXPECT_NEAR(result.x[1], 0.7, 1e-8);
  EXPECT_NEAR(result.residual_sum_of_squares, 0.0, 1e-10);
}

TEST(NnlsTest, ClampsNegativeComponentToZero) {
  // Unconstrained solution would have a negative coefficient for column 1:
  // b = 2*col0 - 1*col1. NNLS must zero x[1] and refit.
  Matrix a(6, 2);
  Vector b(6);
  Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    a(i, 0) = rng.Uniform(0, 1);
    a(i, 1) = rng.Uniform(0, 1);
    b[i] = 2.0 * a(i, 0) - 1.0 * a(i, 1);
  }
  NnlsResult result = SolveNnls(a, b);
  ASSERT_TRUE(result.converged);
  EXPECT_GE(result.x[0], 0.0);
  EXPECT_DOUBLE_EQ(result.x[1], 0.0);
}

TEST(NnlsTest, ZeroRhsGivesZeroSolution) {
  Matrix a(3, 2);
  a(0, 0) = 1;
  a(1, 1) = 1;
  a(2, 0) = 1;
  Vector b = {0.0, 0.0, 0.0};
  NnlsResult result = SolveNnls(a, b);
  ASSERT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.x[0], 0.0);
  EXPECT_DOUBLE_EQ(result.x[1], 0.0);
}

TEST(NnlsTest, AllSolutionsNonNegativeProperty) {
  // Property: for random problems, NNLS never returns a negative entry and
  // never beats the unconstrained optimum.
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t rows = 8;
    const size_t cols = 4;
    Matrix a(rows, cols);
    Vector b(rows);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        a(r, c) = rng.Normal(0.0, 1.0);
      }
      b[r] = rng.Normal(0.0, 1.0);
    }
    NnlsResult result = SolveNnls(a, b);
    for (double v : result.x) {
      EXPECT_GE(v, 0.0);
    }
    Vector unconstrained;
    if (SolveLeastSquares(a, b, &unconstrained)) {
      const double rss_unc = ResidualSumOfSquares(a, unconstrained, b);
      EXPECT_GE(result.residual_sum_of_squares, rss_unc - 1e-8);
    }
    // The zero vector is always feasible, so NNLS can never do worse than it.
    const double rss_zero = Dot(b, b);
    EXPECT_LE(result.residual_sum_of_squares, rss_zero + 1e-8);
  }
}

TEST(NnlsTest, RecoversNonNegativeGroundTruth) {
  // Property: when the ground truth is non-negative and the system is
  // overdetermined and noiseless, NNLS recovers it.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 30;
    const size_t cols = 3;
    Matrix a(rows, cols);
    Vector truth = {rng.Uniform(0, 5), rng.Uniform(0, 5), rng.Uniform(0, 5)};
    Vector b(rows, 0.0);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        a(r, c) = rng.Uniform(0.1, 2.0);
        b[r] += a(r, c) * truth[c];
      }
    }
    NnlsResult result = SolveNnls(a, b);
    ASSERT_TRUE(result.converged);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_NEAR(result.x[c], truth[c], 1e-6) << "trial " << trial << " col " << c;
    }
  }
}

// A seeded Gram system over 40 correlated samples: every feature is a shared
// base plus a small per-feature offset, so the active set has real work to do.
GramSystem SeededGram(size_t dims, uint64_t seed, const Vector& truth) {
  Rng rng(seed);
  GramSystem gram(dims);
  Vector f(dims);
  for (int r = 0; r < 40; ++r) {
    const double base = rng.Uniform(0.1, 2.0);
    double y = 0.0;
    for (size_t c = 0; c < dims; ++c) {
      f[c] = base + rng.Uniform(0.0, 0.3);
      y += f[c] * truth[c];
    }
    y += rng.Normal(0.0, 0.05);
    gram.Add(f.data(), f.size(), y);
  }
  return gram;
}

struct PinnedNnls {
  Vector x;
  int iterations;
  bool converged;
  double rss;
};

void ExpectPinned(const NnlsResult& got, const PinnedNnls& want) {
  ASSERT_EQ(got.x.size(), want.x.size());
  for (size_t i = 0; i < want.x.size(); ++i) {
    EXPECT_EQ(got.x[i], want.x[i]) << "x[" << i << "]";
  }
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.residual_sum_of_squares, want.rss);
}

// Bit-for-bit outputs of the active-set solver at the sizes its callers use
// (convergence 2, speed 4 and 5, DL2 6). Any change to the order of the
// solver's floating-point operations shows up here.
TEST(NnlsPinTest, TwoUnknowns) {
  ExpectPinned(SolveNnlsGram(SeededGram(2, 11, {0.8, 0.3})),
               {{0x1.a401883281cb9p-1, 0x1.1d370078e8c5fp-2}, 2, true,
                0x1.186f1e395b4p-3});
}

// The two-unknown system of one Eqn-1 lane: 25 points at steps
// k = scale * i (i = 1..25), features (k, 1), target slope * k + intercept.
GramSystem LaneGram(double scale, double slope, double intercept) {
  GramSystem gram(2);
  for (int i = 1; i <= 25; ++i) {
    const double k = scale * i;
    const double f[2] = {k, 1.0};
    gram.Add(f, 2, slope * k + intercept);
  }
  return gram;
}

TEST(NnlsPinTest, TwoUnknownsEntersTheInterceptFirst) {
  // Small steps make A^T b's intercept entry the larger: the passive set
  // grows in the order {1, 0}, whose subset matrix is laid out transposed.
  ExpectPinned(SolveNnlsGram(LaneGram(0.04, 1.0, 2.0)),
               {{0x1.0000000000875p+0, 0x1.fffffffffd86ap+0}, 2, true, 0.0});
}

TEST(NnlsPinTest, TwoUnknownsStepsBackToTheActiveSet) {
  // A falling target: the slope enters first, the unconstrained {0, 1}
  // solution makes it negative, and the inner step returns it to zero.
  ExpectPinned(SolveNnlsGram(LaneGram(1.0, -1.0, 30.0)),
               {{0.0, 0x1.0ffffffffed4ep+4}, 3, true, 0x1.4500000000004p+10});
}

TEST(NnlsPinTest, TwoUnknownsWithANonPositiveRightHandSide) {
  // A^T b <= 0: x = 0 satisfies the KKT conditions before any iteration.
  ExpectPinned(SolveNnlsGram(LaneGram(1.0, -0.5, -1.0)),
               {{0.0, 0.0}, 0, true, 0x1.b0dp+10});
}

TEST(NnlsPinTest, FourUnknownsZeroesANegativeCoefficient) {
  ExpectPinned(SolveNnlsGram(SeededGram(4, 12, {1.0, -0.5, 2.0, 0.3})),
               {{0x1.d025a16f3e7a9p-1, 0.0, 0x1.c29cdb3ddff16p+0, 0x1.29494b0f62421p-3},
                3,
                true,
                0x1.229bfcfad5p-2});
}

TEST(NnlsPinTest, FiveUnknowns) {
  ExpectPinned(SolveNnlsGram(SeededGram(5, 13, {1.0, 2.8, 4.9, 0.0, 0.02})),
               {{0x1.f7c9f4c6f7aafp-1, 0x1.559174df7a692p+1, 0x1.43a277e148bcfp+2, 0.0,
                 0.0},
                3,
                true,
                0x1.c54e232ecp-4});
}

TEST(NnlsPinTest, SixUnknownsStepsBackToTheActiveSet) {
  // Six iterations for four positive coefficients: two inner steps moved a
  // passive variable back to zero.
  ExpectPinned(SolveNnlsGram(SeededGram(6, 14, {0.5, 1.5, -1.0, 0.7, 0.0, 2.2})),
               {{0x1.3dcaca57475ddp-3, 0x1.155e8a677dedap+0, 0.0, 0x1.5b40381c6136ap-1,
                 0.0, 0x1.f8c98e5756819p+0},
                6,
                true,
                0x1.45fb02640c8p-1});
}

TEST(NnlsPinTest, NumericallySingularSubsetIsDropped) {
  // The 2x2 subset is indefinite by 1e-9, below the Cholesky ridge: every
  // attempt to add the second variable fails, drops it, and re-picks it until
  // the iteration cap.
  Matrix ata(2, 2);
  ata(0, 0) = 1.0;
  ata(0, 1) = -1.0;
  ata(1, 0) = -1.0;
  ata(1, 1) = 1.0 - 1e-9;
  ExpectPinned(SolveNnlsGram(ata, {1.0, 1.0}, 1.0),
               {{0x1.fffffffffdcdp-1, 0.0}, 300, false, 0.0});
}

TEST(NnlsPinTest, AboveFixedCapacityFailsTheCheck) {
  const size_t dims = kMaxSolveDims + 1;
  const GramSystem gram(dims);
  EXPECT_DEATH(SolveNnlsGram(gram), "NNLS supports at most 8 unknowns, got 9");
  const Matrix m(dims, dims);
  const Vector b(dims, 0.0);
  Vector x;
  EXPECT_DEATH(SolveSpd(m, b, &x), "SolveSpd supports at most 8 unknowns, got 9");
}

// ||Ax - b||^2 from the Gram identity, in the order SolveNnlsGram documents:
// x^T (A^T A) x row by row, then x^T A^T b, then b^T b - 2 x^T A^T b + quad,
// clamped at 0.
double GramIdentityRss(const Matrix& ata, const double* atb, double btb,
                       const double* x) {
  const size_t n = ata.rows();
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
  return std::max(0.0, btb - 2.0 * xtb + quad);
}

// One NnlsGramSolver reused across many right-hand sides must return, on
// every solve, exactly what a fresh dense SolveNnls returns: the cached
// subset factors change no bit. With `duplicate`, the last column repeats
// the first, so A^T A is singular and only the Cholesky ridge makes the
// subsets holding both columns factorable. The one-solve wrapper's residual
// is the Gram identity at that same solution, bit for bit.
void ExpectReusedSolverMatchesDense(size_t dims, bool duplicate) {
  SCOPED_TRACE("dims " + std::to_string(dims) + (duplicate ? " duplicate" : ""));
  Rng rng(300 + dims * 2 + (duplicate ? 1 : 0));
  Matrix a(30, dims);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double base = rng.Uniform(0.1, 2.0);
    for (size_t c = 0; c < dims; ++c) {
      a(r, c) = base + rng.Uniform(0.0, 0.3);
    }
    if (duplicate) {
      a(r, dims - 1) = a(r, 0);
    }
  }
  const Matrix ata = a.Gram();
  NnlsGramSolver solver(ata.data(), dims);
  for (int rhs = 0; rhs < 60; ++rhs) {
    Vector truth(dims);
    for (double& t : truth) {
      t = rng.Uniform(-1.0, 2.0);  // about a third negative: real active-set work
    }
    Vector b = a.Times(truth);
    for (double& v : b) {
      v += rng.Normal(0.0, 0.05);
    }
    const NnlsResult fresh = SolveNnls(a, b);
    const Vector atb = a.TransposeTimes(b);
    Vector x(dims);
    const NnlsGramSolver::Solution got = solver.Solve(atb.data(), x.data());
    for (size_t i = 0; i < dims; ++i) {
      EXPECT_EQ(x[i], fresh.x[i]) << "rhs " << rhs << " x[" << i << "]";
    }
    EXPECT_EQ(got.iterations, fresh.iterations) << "rhs " << rhs;
    EXPECT_EQ(got.converged, fresh.converged) << "rhs " << rhs;
    EXPECT_EQ(SolveNnlsGram(ata, atb, Dot(b, b)).residual_sum_of_squares,
              GramIdentityRss(ata, atb.data(), Dot(b, b), x.data()))
        << "rhs " << rhs;
  }
}

TEST(NnlsGramSolverTest, ReusedSolverMatchesFreshDenseSolves) {
  for (size_t dims = 2; dims <= 6; ++dims) {
    ExpectReusedSolverMatchesDense(dims, false);
    ExpectReusedSolverMatchesDense(dims, true);
  }
}

TEST(NnlsGramSolverTest, ReusedSolverKeepsAFailedSubsetFactor) {
  // The indefinite 2x2 of NnlsPinTest.NumericallySingularSubsetIsDropped:
  // the {0, 1} subset never factors. A reused solver answers from its cached
  // failure exactly as a fresh solver does from a fresh attempt.
  Matrix ata(2, 2);
  ata(0, 0) = 1.0;
  ata(0, 1) = -1.0;
  ata(1, 0) = -1.0;
  ata(1, 1) = 1.0 - 1e-9;
  NnlsGramSolver reused(ata.data(), 2);
  Rng rng(17);
  for (int rhs = 0; rhs < 20; ++rhs) {
    const double atb[2] = {rng.Uniform(0.1, 2.0), rng.Uniform(0.1, 2.0)};
    double want_x[2];
    double got_x[2];
    NnlsGramSolver fresh(ata.data(), 2);
    const NnlsGramSolver::Solution want = fresh.Solve(atb, want_x);
    const NnlsGramSolver::Solution got = reused.Solve(atb, got_x);
    EXPECT_EQ(got_x[0], want_x[0]) << "rhs " << rhs;
    EXPECT_EQ(got_x[1], want_x[1]) << "rhs " << rhs;
    EXPECT_EQ(got.iterations, want.iterations) << "rhs " << rhs;
    EXPECT_EQ(got.converged, want.converged) << "rhs " << rhs;
    EXPECT_EQ(SolveNnlsGram(ata, {atb[0], atb[1]}, 1.0).residual_sum_of_squares,
              GramIdentityRss(ata, atb, 1.0, got_x))
        << "rhs " << rhs;
  }
}

// SolveLanes on `ata` must give every lane of (u, v) the bits and
// iterations a fresh Solve gives it, whether the lane stays on the common
// path or falls back, and return the summed iterations.
void ExpectLanesMatchSolve(const double* ata, const Vector& u, const Vector& v,
                           const NnlsOptions& options = {}) {
  ASSERT_EQ(u.size(), v.size());
  const size_t lanes = u.size();
  Vector x0(lanes);
  Vector x1(lanes);
  NnlsGramSolver batched(ata, 2, options);
  const int64_t total = batched.SolveLanes(u.data(), v.data(), lanes, x0.data(), x1.data());
  int64_t want_total = 0;
  for (size_t k = 0; k < lanes; ++k) {
    const double atb[2] = {u[k], v[k]};
    double want[2];
    NnlsGramSolver fresh(ata, 2, options);
    want_total += fresh.Solve(atb, want).iterations;
    EXPECT_EQ(std::bit_cast<uint64_t>(x0[k]), std::bit_cast<uint64_t>(want[0]))
        << "lane " << k << " (" << u[k] << ", " << v[k] << "): " << x0[k] << " vs "
        << want[0];
    EXPECT_EQ(std::bit_cast<uint64_t>(x1[k]), std::bit_cast<uint64_t>(want[1]))
        << "lane " << k << " (" << u[k] << ", " << v[k] << "): " << x1[k] << " vs "
        << want[1];
  }
  EXPECT_EQ(total, want_total);
}

// Seeded right-hand sides over mixed signs, exact zeros, magnitudes from
// 1e-300 to 1e300, and a sprinkle of +-inf and NaN entries, plus the lanes
// of a refit pass: scaled copies of (u0, v0).
void SeededLanes(uint64_t seed, double u0, double v0, Vector* u, Vector* v) {
  Rng rng(seed);
  const auto entry = [&rng]() {
    const double pick = rng.Uniform(0.0, 1.0);
    if (pick < 0.05) {
      return 0.0;
    }
    if (pick < 0.07) {
      return std::numeric_limits<double>::infinity();
    }
    if (pick < 0.09) {
      return -std::numeric_limits<double>::infinity();
    }
    if (pick < 0.11) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    const double magnitude = std::pow(10.0, rng.Uniform(-300.0, 300.0));
    const double mantissa = rng.Uniform(0.5, 2.0) * (pick < 0.7 ? 1.0 : -1.0);
    return pick < 0.4 ? mantissa : mantissa * magnitude;
  };
  for (int i = 0; i < 400; ++i) {
    u->push_back(entry());
    v->push_back(entry());
  }
  for (int i = 0; i < 100; ++i) {
    u->push_back(u0 * rng.Uniform(0.5, 2.0));
    v->push_back(v0 * rng.Uniform(0.5, 2.0));
  }
}

TEST(NnlsGramSolverTest, SolveLanesMatchesSolveBitForBit) {
  // The two-unknown systems of NnlsPinTest: each one's own right-hand side,
  // then seeded ones on its Gram.
  const GramSystem systems[] = {SeededGram(2, 11, {0.8, 0.3}), LaneGram(0.04, 1.0, 2.0),
                                LaneGram(1.0, -1.0, 30.0), LaneGram(1.0, -0.5, -1.0),
                                LaneGram(1.0, 0.5, 3.0)};
  uint64_t seed = 40;
  for (const GramSystem& gram : systems) {
    SCOPED_TRACE("system " + std::to_string(seed - 40));
    Vector u = {gram.atb()[0]};
    Vector v = {gram.atb()[1]};
    SeededLanes(seed++, gram.atb()[0], gram.atb()[1], &u, &v);
    ExpectLanesMatchSolve(gram.ata().data(), u, v);
    // A cap of 1 or 2 iterations cuts the common path short or ends on it.
    for (const int cap : {0, 1, 2, 3}) {
      SCOPED_TRACE("max_iterations " + std::to_string(cap));
      NnlsOptions options;
      options.max_iterations = cap;
      ExpectLanesMatchSolve(gram.ata().data(), u, v, options);
    }
  }
  // The indefinite Gram of NnlsPinTest.NumericallySingularSubsetIsDropped:
  // the {0, 1} subset never factors, so a lane that needs it falls back.
  const double singular[4] = {1.0, -1.0, -1.0, 1.0 - 1e-9};
  Vector u;
  Vector v;
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    u.push_back(rng.Uniform(0.1, 2.0));
    v.push_back(rng.Uniform(0.1, 2.0));
  }
  SeededLanes(seed, 1.0, 1.0, &u, &v);
  ExpectLanesMatchSolve(singular, u, v);
  // No lanes at all.
  ExpectLanesMatchSolve(singular, {}, {});
}

TEST(DotTest, Basic) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
}

}  // namespace
}  // namespace optimus
