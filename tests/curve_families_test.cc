#include <array>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/perfmodel/convergence_model.h"
#include "src/perfmodel/curve_families.h"

namespace optimus {
namespace {

// Noisy samples from a given generator over steps 1..n.
std::vector<LossSample> Sample(int n, double noise_sd, uint64_t seed,
                               const std::function<double(double)>& truth) {
  Rng rng(seed);
  std::vector<LossSample> out;
  for (int i = 1; i <= n; ++i) {
    const double k = static_cast<double>(i);
    out.push_back({k, truth(k) * rng.LogNormalFactor(noise_sd)});
  }
  return out;
}

// The inverse polynomial is Eqn 1, ConvergenceModel's own fit; its
// coefficients live in normalized space, so check the raw curve instead: at
// three sampled steps, and at the floor far past the samples.
TEST(CurveFamilyTest, InversePolynomialRecoversTruth) {
  auto truth = [](double k) { return 1.0 / (0.02 * k + 0.5) + 0.1; };
  ConvergenceModel model;
  for (const LossSample& s : Sample(200, 0.0, 1, truth)) {
    model.AddSample(s.step, s.loss);
  }
  ASSERT_TRUE(model.Fit());
  for (double k : {1.0, 50.0, 200.0}) {
    EXPECT_NEAR(model.PredictLoss(k), truth(k), 0.01 * truth(k)) << "k=" << k;
  }
  EXPECT_NEAR(model.PredictLoss(1e9), 0.1, 0.02);
}

TEST(CurveFamilyTest, ExponentialRecoversTruth) {
  auto truth = [](double k) { return 0.9 * std::exp(-0.03 * k) + 0.2; };
  const CurveFit fit =
      FitCurveFamily(CurveFamily::kExponential, Sample(200, 0.0, 2, truth));
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.b0, 0.03, 0.003);
  EXPECT_NEAR(fit.b1, 0.9, 0.09);
  EXPECT_NEAR(fit.b2, 0.2, 0.03);
}

TEST(CurveFamilyTest, PowerLawRecoversTruth) {
  auto truth = [](double k) { return 1.5 * std::pow(k + 1.0, -0.7) + 0.05; };
  const CurveFit fit = FitCurveFamily(CurveFamily::kPowerLaw, Sample(200, 0.0, 3, truth));
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.b0, 0.7, 0.07);
  EXPECT_NEAR(fit.b1, 1.5, 0.15);
  EXPECT_NEAR(fit.b2, 0.05, 0.03);
}

TEST(CurveFamilyTest, TooFewSamplesInvalid) {
  std::vector<LossSample> two = {{1.0, 1.0}, {2.0, 0.9}};
  EXPECT_FALSE(FitCurveFamily(CurveFamily::kExponential, two).valid);
}

TEST(CurveFamilyTest, PredictIsMonotoneDecreasing) {
  for (CurveFamily family : {CurveFamily::kInversePolynomial, CurveFamily::kExponential,
                             CurveFamily::kPowerLaw}) {
    SCOPED_TRACE(CurveFamilyName(family));
    CurveFit fit;
    fit.valid = true;
    fit.family = family;
    fit.b0 = 0.05;
    fit.b1 = 1.0;
    fit.b2 = 0.1;
    double prev = fit.Predict(0.0);
    for (int k = 10; k <= 200; k += 10) {
      const double cur = fit.Predict(k);
      EXPECT_LT(cur, prev);
      EXPECT_GE(cur, fit.b2);
      prev = cur;
    }
  }
}

// Selection runs on a job's ConvergenceModel: fit 300 samples, then select.
class MultiFamilyTest : public ::testing::Test {
 protected:
  static ConvergenceModel FitOn(const std::function<double(double)>& truth,
                                double noise_sd, uint64_t seed,
                                std::array<double, kNumCurveFamilies>* rss = nullptr) {
    ConvergenceModel model;
    Rng rng(seed);
    for (int i = 1; i <= 300; ++i) {
      const double k = static_cast<double>(i);
      model.AddSample(k, truth(k) * rng.LogNormalFactor(noise_sd));
    }
    EXPECT_TRUE(model.Fit());
    const std::array<double, kNumCurveFamilies> family_rss = model.SelectFamily();
    if (rss != nullptr) {
      *rss = family_rss;
    }
    return model;
  }
};

TEST_F(MultiFamilyTest, SelectsInverseForSgdCurve) {
  auto truth = [](double k) { return 4.0 / (0.05 * k + 1.0) + 0.4; };
  ConvergenceModel model = FitOn(truth, 0.01, 11);
  EXPECT_EQ(model.family(), CurveFamily::kInversePolynomial);
}

TEST_F(MultiFamilyTest, SelectsExponentialForExpCurve) {
  // A curve Eqn 1 cannot describe (the paper's A3C example motivates this).
  auto truth = [](double k) { return 3.0 * std::exp(-0.025 * k) + 0.5; };
  ConvergenceModel model = FitOn(truth, 0.01, 13);
  EXPECT_EQ(model.family(), CurveFamily::kExponential);
}

TEST_F(MultiFamilyTest, PredictLossDenormalizes) {
  auto truth = [](double k) { return 5.0 * std::exp(-0.03 * k) + 1.0; };
  ConvergenceModel model = FitOn(truth, 0.0, 17);
  ASSERT_EQ(model.family(), CurveFamily::kExponential);
  for (double k : {10.0, 100.0, 250.0}) {
    EXPECT_NEAR(model.PredictLoss(k), truth(k), 0.05 * truth(k)) << "k=" << k;
  }
}

TEST_F(MultiFamilyTest, PredictTotalEpochsMatchesDetectorOnTruth) {
  auto truth = [](double k) { return 2.0 / (0.01 * k + 0.4) + 0.3; };
  ConvergenceModel model = FitOn(truth, 0.005, 19);
  const int64_t spe = 10;
  const int64_t predicted = model.PredictTotalEpochs(0.02, 3, spe);
  // Ground truth detection on the noiseless curve.
  int streak = 0;
  int64_t expected = 10000;
  double prev = truth(0);
  for (int64_t e = 1; e < 10000; ++e) {
    const double cur = truth(static_cast<double>(e * spe));
    if ((prev - cur) / prev < 0.02) {
      if (++streak >= 3) {
        expected = e;
        break;
      }
    } else {
      streak = 0;
    }
    prev = cur;
  }
  EXPECT_NEAR(static_cast<double>(predicted), static_cast<double>(expected),
              0.2 * static_cast<double>(expected));
}

TEST_F(MultiFamilyTest, FamilyRssReportsAllFamilies) {
  auto truth = [](double k) { return 3.0 * std::exp(-0.02 * k) + 0.5; };
  std::array<double, kNumCurveFamilies> rss;
  ConvergenceModel model = FitOn(truth, 0.01, 23, &rss);
  const double exp_rss = rss[static_cast<size_t>(CurveFamily::kExponential)];
  const double inv_rss = rss[static_cast<size_t>(CurveFamily::kInversePolynomial)];
  EXPECT_EQ(inv_rss, model.residual());
  EXPECT_LT(exp_rss, inv_rss);
}

TEST_F(MultiFamilyTest, ResetClears) {
  auto truth = [](double k) { return 3.0 * std::exp(-0.025 * k) + 0.5; };
  ConvergenceModel model = FitOn(truth, 0.0, 29);
  ASSERT_EQ(model.family(), CurveFamily::kExponential);
  model.Reset();
  EXPECT_FALSE(model.fitted());
  EXPECT_EQ(model.num_samples(), 0u);
  EXPECT_EQ(model.family(), CurveFamily::kInversePolynomial);
}

// The selection sees the model's samples, so the ones the model drops never
// reach it: interleaving invalid losses changes nothing, bit for bit.
TEST_F(MultiFamilyTest, IgnoresInvalidSamples) {
  auto truth = [](double k) { return 3.0 * std::exp(-0.025 * k) + 0.5; };
  ConvergenceModel clean;
  ConvergenceModel noisy;
  for (int i = 1; i <= 100; ++i) {
    const double k = static_cast<double>(i);
    clean.AddSample(k, truth(k));
    noisy.AddSample(k, truth(k));
    noisy.AddSample(k, i % 2 == 0 ? -1.0 : std::nan(""));
  }
  ASSERT_TRUE(clean.Fit());
  ASSERT_TRUE(noisy.Fit());
  EXPECT_EQ(clean.SelectFamily(), noisy.SelectFamily());
  EXPECT_EQ(noisy.num_samples(), 100u);
  EXPECT_EQ(clean.family(), noisy.family());
  EXPECT_EQ(clean.PredictLoss(150.0), noisy.PredictLoss(150.0));
}

}  // namespace
}  // namespace optimus
