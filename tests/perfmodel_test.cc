#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/models/loss_curve.h"
#include "src/models/model_zoo.h"
#include "src/perfmodel/convergence_model.h"
#include "src/perfmodel/preprocess.h"
#include "src/perfmodel/sampler.h"
#include "src/perfmodel/speed_model.h"
#include "src/pserver/comm_model.h"

namespace optimus {
namespace {

TEST(PreprocessTest, OutlierIsReplacedByNeighbourAverage) {
  std::vector<LossSample> samples;
  for (int i = 0; i < 20; ++i) {
    samples.push_back({static_cast<double>(i), 1.0 - 0.01 * i});
  }
  samples[10].loss = 50.0;  // a wild spike
  const std::vector<LossSample> cleaned = RemoveOutliers(samples, 5);
  EXPECT_LT(cleaned[10].loss, 2.0);
  // Non-outliers untouched.
  EXPECT_DOUBLE_EQ(cleaned[3].loss, samples[3].loss);
}

TEST(PreprocessTest, SmoothCurveUntouched) {
  std::vector<LossSample> samples;
  for (int i = 0; i < 30; ++i) {
    samples.push_back({static_cast<double>(i), 2.0 / (1.0 + 0.3 * i) + 0.1});
  }
  const std::vector<LossSample> cleaned = RemoveOutliers(samples, 5);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(cleaned[i].loss, samples[i].loss) << i;
  }
}

// The outlier pass as RemoveOutliers first wrote it: both windows scanned
// for every sample, O(n * window). The differential reference for its tiled
// form.
std::vector<LossSample> RemoveOutliersByScan(const std::vector<LossSample>& samples,
                                             int window) {
  std::vector<LossSample> out = samples;
  const int n = static_cast<int>(samples.size());
  if (n < 3) {
    return out;
  }
  for (int i = 0; i < n; ++i) {
    double next_min = std::numeric_limits<double>::infinity();
    for (int j = i + 1; j <= std::min(n - 1, i + window); ++j) {
      next_min = std::min(next_min, samples[j].loss);
    }
    double prev_max = -std::numeric_limits<double>::infinity();
    for (int j = std::max(0, i - window); j < i; ++j) {
      prev_max = std::max(prev_max, samples[j].loss);
    }
    if (!std::isfinite(next_min) || !std::isfinite(prev_max)) {
      continue;
    }
    const double lo = std::min(next_min, prev_max);
    const double hi = std::max(next_min, prev_max);
    const double slack = 0.05 * std::max(std::abs(hi), 1e-12);
    if (samples[i].loss < lo - slack || samples[i].loss > hi + slack) {
      double sum = 0.0;
      int count = 0;
      for (int j = std::max(0, i - window); j <= std::min(n - 1, i + window); ++j) {
        if (j == i) {
          continue;
        }
        sum += samples[j].loss;
        ++count;
      }
      if (count > 0) {
        out[i].loss = sum / count;
      }
    }
  }
  return out;
}

// A noisy decaying loss feed of `n` samples with about one spike (up or
// down) in twelve, some runs of equal losses, and one sample in fifty a
// plateau at the previous value.
std::vector<LossSample> SpikyFeed(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<LossSample> feed;
  for (size_t i = 0; i < n; ++i) {
    double loss = 2.0 / (1.0 + 0.01 * static_cast<double>(i)) + 0.1;
    loss *= rng.LogNormalFactor(0.03);
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.04) {
      loss *= rng.Uniform(3.0, 50.0);
    } else if (u < 0.08) {
      loss *= rng.Uniform(0.01, 0.3);
    } else if (u < 0.1 && !feed.empty()) {
      loss = feed.back().loss;
    }
    feed.push_back({static_cast<double>(i), loss});
  }
  return feed;
}

TEST(PreprocessTest, TiledOutlierBandMatchesTheScanBitwise) {
  // The linear-time band must replace exactly the samples the scan replaces,
  // with the same bits, at every window and at every length around the tile
  // edges: 0 through 3 * window + 2 samples (no whole window, one interior
  // sample, partial last tiles) and 16,384. Windows 64 and 65 straddle the
  // widest tiled window.
  int replaced = 0;
  for (const int window : {1, 2, 3, 4, 5, 6, 7, 8, 64, 65}) {
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= static_cast<size_t>(3 * window + 2); ++n) {
      lengths.push_back(n);
    }
    lengths.push_back(16384);
    for (const size_t n : lengths) {
      for (uint64_t seed = 0; seed < 3; ++seed) {
        SCOPED_TRACE("window " + std::to_string(window) + " n " + std::to_string(n) +
                     " seed " + std::to_string(seed));
        const std::vector<LossSample> feed = SpikyFeed(n, 7000 + 31 * n + seed);
        const std::vector<LossSample> want = RemoveOutliersByScan(feed, window);
        const std::vector<LossSample> got = RemoveOutliers(feed, window);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<uint64_t>(got[i].loss), std::bit_cast<uint64_t>(want[i].loss))
              << "sample " << i;
          ASSERT_EQ(got[i].step, want[i].step) << "sample " << i;
          replaced += want[i].loss != feed[i].loss ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(replaced, 1000);  // the spikes really are replaced
}

TEST(PreprocessTest, NormalizeScalesToUnitMax) {
  std::vector<LossSample> samples = {{0, 8.0}, {1, 4.0}, {2, 2.0}};
  const double factor = NormalizeLosses(&samples);
  EXPECT_DOUBLE_EQ(factor, 8.0);
  EXPECT_DOUBLE_EQ(samples[0].loss, 1.0);
  EXPECT_DOUBLE_EQ(samples[2].loss, 0.25);
}

TEST(PreprocessTest, NormalizeEmptyIsSafe) {
  std::vector<LossSample> samples;
  EXPECT_DOUBLE_EQ(NormalizeLosses(&samples), 1.0);
}

TEST(PreprocessTest, DownsamplePreservesShapeAndBounds) {
  std::vector<LossSample> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back({static_cast<double>(i), 1.0 / (1.0 + i)});
  }
  const std::vector<LossSample> down = Downsample(samples, 100);
  EXPECT_LE(down.size(), 100u);
  EXPECT_GE(down.size(), 90u);
  // Monotone decreasing input stays monotone after bucket averaging.
  for (size_t i = 1; i < down.size(); ++i) {
    EXPECT_LT(down[i].loss, down[i - 1].loss);
    EXPECT_GT(down[i].step, down[i - 1].step);
  }
  // Short inputs are passed through.
  EXPECT_EQ(Downsample(down, 1000).size(), down.size());
}

class ConvergenceModelTest : public ::testing::Test {
 protected:
  // Feeds `num_epochs` epochs of noisy loss samples from a model's
  // ground-truth curve into a convergence model, starting at `first_epoch`.
  // The paper collects a loss point after every step; we sample a
  // representative 20 points per epoch.
  static void FeedEpochs(const LossCurve& curve, int num_epochs, ConvergenceModel* model,
                         Rng* rng, int64_t first_epoch = 0) {
    const int64_t spe = curve.steps_per_epoch();
    const int per_epoch = 20;
    for (int64_t e = first_epoch; e < first_epoch + num_epochs; ++e) {
      for (int i = 1; i <= per_epoch; ++i) {
        const int64_t step = e * spe + i * spe / per_epoch;
        model->AddSample(static_cast<double>(step), curve.SampleLossAtStep(step, rng));
      }
    }
  }

  // Noisy samples from a given generator over steps 1..n.
  static std::vector<LossSample> Sample(int n, double noise_sd, uint64_t seed,
                                        const std::function<double(double)>& truth) {
    Rng rng(seed);
    std::vector<LossSample> out;
    for (int i = 1; i <= n; ++i) {
      const double k = static_cast<double>(i);
      out.push_back({k, truth(k) * rng.LogNormalFactor(noise_sd)});
    }
    return out;
  }
};

TEST_F(ConvergenceModelTest, RecoversCurveFromNoisySamples) {
  const ModelSpec& spec = FindModel("Seq2Seq");
  const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(spec.loss, spe);
  ConvergenceModel model;
  Rng rng(31);
  FeedEpochs(curve, 40, &model, &rng);
  ASSERT_TRUE(model.Fit());

  // Predicted losses should track the true curve within a few percent over
  // the observed range and extrapolate sensibly beyond it.
  for (int e : {5, 20, 40, 60}) {
    const double truth = curve.TrueLossAtEpoch(e);
    const double pred = model.PredictLoss(static_cast<double>(e * spe));
    EXPECT_NEAR(pred, truth, 0.08 * truth) << "epoch " << e;
  }
}

TEST_F(ConvergenceModelTest, PredictsConvergenceEpochNearGroundTruth) {
  for (const char* name : {"Seq2Seq", "ResNet-50", "ResNext-110"}) {
    SCOPED_TRACE(name);
    const ModelSpec& spec = FindModel(name);
    const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
    LossCurve curve(spec.loss, spe);
    const double delta = 0.02;
    const int patience = 3;
    const int64_t truth = curve.EpochsToConverge(delta, patience);

    ConvergenceModel model;
    Rng rng(37);
    // Observe roughly the first half of training.
    FeedEpochs(curve, static_cast<int>(truth / 2), &model, &rng);
    ASSERT_TRUE(model.Fit());
    const int64_t predicted = model.PredictTotalEpochs(delta, patience, spe);
    const double err =
        std::abs(static_cast<double>(predicted - truth)) / static_cast<double>(truth);
    EXPECT_LT(err, 0.25) << "predicted " << predicted << " truth " << truth;
  }
}

TEST_F(ConvergenceModelTest, PredictionImprovesWithProgress) {
  // Fig 6: the error of the estimated total epoch count shrinks as training
  // progresses. bench_fig06's measurement (every zoo model, 20 loss samples
  // per epoch, a refit at every 10% of progress, Rng(1000 * seed + model
  // index)) runs over 20 disjoint five-seed sets. The mean |error| at
  // completion must be below the one at 10% in at least 16 of the 20 sets
  // (a one-sided sign test at p < 0.01), and below 15% in every set.
  const double delta = 0.02;
  const int patience = 3;
  const std::vector<ModelSpec>& zoo = GetModelZoo();
  int improved_sets = 0;
  std::string per_set;
  for (int first_seed = 1; first_seed <= 96; first_seed += 5) {
    double early_abs_sum = 0.0;
    double late_abs_sum = 0.0;
    for (int seed = first_seed; seed < first_seed + 5; ++seed) {
      for (size_t m = 0; m < zoo.size(); ++m) {
        const int64_t spe = zoo[m].StepsPerEpoch(zoo[m].default_sync_batch);
        LossCurve curve(zoo[m].loss, spe);
        const int64_t truth = curve.EpochsToConverge(delta, patience);
        ConvergenceModel model;
        Rng rng(1000 * seed + m);
        int64_t fed_epochs = 0;
        for (int pct = 10; pct <= 100; pct += 10) {
          const int64_t target_epochs = std::max<int64_t>(2, truth * pct / 100);
          FeedEpochs(curve, static_cast<int>(target_epochs - fed_epochs), &model, &rng,
                     fed_epochs);
          fed_epochs = target_epochs;
          ASSERT_TRUE(model.Fit()) << zoo[m].name << " seed " << seed << " at " << pct << "%";
          const double abs_err =
              std::abs(static_cast<double>(model.PredictTotalEpochs(delta, patience, spe) -
                                           truth)) /
              static_cast<double>(truth);
          if (pct == 10) {
            early_abs_sum += abs_err;
          } else if (pct == 100) {
            late_abs_sum += abs_err;
          }
        }
      }
    }
    EXPECT_LT(late_abs_sum / (5.0 * zoo.size()), 0.15) << "seeds from " << first_seed;
    improved_sets += late_abs_sum < early_abs_sum ? 1 : 0;
    per_set += " " + std::to_string(first_seed) + ":" +
               std::to_string(100.0 * early_abs_sum / (5.0 * zoo.size())) + "%->" +
               std::to_string(100.0 * late_abs_sum / (5.0 * zoo.size())) + "%";
  }
  EXPECT_GE(improved_sets, 16) << "mean |error| at 10% -> 100% per set:" << per_set;
}

// The convergence model fits Eqn 1 itself; its coefficients live in
// normalized space, so check the raw curve instead: at three sampled steps,
// and at the floor far past the samples.
TEST_F(ConvergenceModelTest, InversePolynomialRecoversTruth) {
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

TEST_F(ConvergenceModelTest, RemainingEpochsDecreasesAndHitsZero) {
  const ModelSpec& spec = FindModel("DSSM");
  const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(spec.loss, spe);
  ConvergenceModel model;
  Rng rng(43);
  FeedEpochs(curve, 30, &model, &rng);
  ASSERT_TRUE(model.Fit());
  const double at_5 = model.PredictRemainingEpochs(5.0 * spe, 0.02, 3, spe);
  const double at_20 = model.PredictRemainingEpochs(20.0 * spe, 0.02, 3, spe);
  EXPECT_GT(at_5, at_20);
  const double far_future = model.PredictRemainingEpochs(1e7 * spe, 0.02, 3, spe);
  EXPECT_DOUBLE_EQ(far_future, 0.0);
}

TEST_F(ConvergenceModelTest, IgnoresInvalidSamples) {
  ConvergenceModel model;
  model.AddSample(1.0, std::nan(""));
  model.AddSample(2.0, -1.0);
  model.AddSample(3.0, 0.0);
  EXPECT_EQ(model.num_samples(), 0u);
}

TEST_F(ConvergenceModelTest, ResetClearsState) {
  const ModelSpec& spec = FindModel("CNN-rand");
  LossCurve curve(spec.loss, spec.StepsPerEpoch(spec.default_sync_batch));
  ConvergenceModel model;
  Rng rng(47);
  FeedEpochs(curve, 20, &model, &rng);
  ASSERT_TRUE(model.Fit());
  model.Reset();
  EXPECT_FALSE(model.fitted());
  EXPECT_EQ(model.num_samples(), 0u);
}

TEST_F(ConvergenceModelTest, TooFewSamplesDoesNotFit) {
  ConvergenceModel model;
  model.AddSample(1.0, 1.0);
  model.AddSample(2.0, 0.9);
  EXPECT_FALSE(model.Fit());
  EXPECT_FALSE(model.fitted());
}

TEST_F(ConvergenceModelTest, CachedFitsMatchFromScratchBitwise) {
  // Dense loss feed (300 samples per epoch) fitted at full fidelity: the
  // shared-Gram solves, dirty-flag skips and memoized epoch walks must
  // reproduce the from-scratch fit exactly, refit after refit.
  const ModelSpec& spec = FindModel("ResNet-50");
  const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(spec.loss, spe);
  ConvergenceModelOptions options;
  options.max_fit_points = 16384;
  ConvergenceModel cached(options);
  ConvergenceModel scratch(options);
  scratch.set_caching(false);
  Rng rng(71);
  const int per_epoch = 300;
  for (int e = 0; e < 24; ++e) {
    for (int i = 1; i <= per_epoch; ++i) {
      const int64_t step = e * spe + i * spe / per_epoch;
      const double loss = curve.SampleLossAtStep(step, &rng);
      cached.AddSample(static_cast<double>(step), loss);
      scratch.AddSample(static_cast<double>(step), loss);
    }
    // The second round refits with no new samples (the dirty-flag path).
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("epoch " + std::to_string(e) + " round " + std::to_string(round));
      ASSERT_EQ(cached.Fit(), scratch.Fit());
      if (!scratch.fitted()) {
        continue;
      }
      EXPECT_EQ(cached.beta0(), scratch.beta0());
      EXPECT_EQ(cached.beta1(), scratch.beta1());
      EXPECT_EQ(cached.beta2(), scratch.beta2());
      EXPECT_EQ(cached.residual(), scratch.residual());
      for (const double delta : {0.01, 0.02, 0.05}) {
        EXPECT_EQ(cached.PredictTotalEpochs(delta, 3, spe),
                  scratch.PredictTotalEpochs(delta, 3, spe));
      }
    }
  }
  EXPECT_TRUE(scratch.fitted());
}

// Feeds `feed` to a cached model and a set_caching(false) reference in
// lockstep, refitting both every `chunk` samples (and once more with no new
// samples), and requires bitwise-equal fits after every refit. Both models
// are Reset() after sample `reset_at` (never when it is past the feed).
// Returns how many refits produced a fit.
int ExpectCachedMatchesReference(const std::vector<LossSample>& feed, size_t chunk,
                                 size_t reset_at, ConvergenceModelOptions options,
                                 int64_t spe) {
  ConvergenceModel cached(options);
  ConvergenceModel reference(options);
  reference.set_caching(false);
  int fitted = 0;
  for (size_t i = 0; i < feed.size(); ++i) {
    cached.AddSample(feed[i].step, feed[i].loss);
    reference.AddSample(feed[i].step, feed[i].loss);
    if (i + 1 == reset_at) {
      cached.Reset();
      reference.Reset();
    }
    if ((i + 1) % chunk != 0 && i + 1 != feed.size()) {
      continue;
    }
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("sample " + std::to_string(i) + " round " + std::to_string(round));
      const int64_t cached_iters = cached.fit_stats().nnls_iterations;
      const int64_t reference_iters = reference.fit_stats().nnls_iterations;
      EXPECT_EQ(cached.Fit(), reference.Fit());
      // The cached sweep solves exactly the candidates the reference solves
      // (none of the infeasible ones), and the no-new-samples round none.
      EXPECT_EQ(cached.fit_stats().nnls_iterations - cached_iters,
                round == 0 ? reference.fit_stats().nnls_iterations - reference_iters : 0);
      EXPECT_EQ(cached.fitted(), reference.fitted());
      if (!reference.fitted() || !cached.fitted()) {
        continue;
      }
      ++fitted;
      EXPECT_EQ(cached.beta0(), reference.beta0());
      EXPECT_EQ(cached.beta1(), reference.beta1());
      EXPECT_EQ(cached.beta2(), reference.beta2());
      EXPECT_EQ(cached.residual(), reference.residual());
      for (const double delta : {0.01, 0.05}) {
        EXPECT_EQ(cached.PredictTotalEpochs(delta, 3, spe),
                  reference.PredictTotalEpochs(delta, 3, spe));
      }
    }
    if (::testing::Test::HasFailure()) {
      break;  // one diverged feed is enough to report
    }
  }
  return fitted;
}

// 12 epochs of 20 samples each from zoo model `seed % zoo size`, its noise
// scaled by none, half, nominal or triple as the seed advances; writes the
// model's steps per epoch into `*spe`.
constexpr size_t kZooFeedPerEpoch = 20;

std::vector<LossSample> ZooFeed(int seed, int64_t* spe) {
  const std::vector<ModelSpec>& zoo = GetModelZoo();
  const double noise_scale[] = {0.0, 0.5, 1.0, 3.0};
  const ModelSpec& spec = zoo[seed % zoo.size()];
  LossCurveParams params = spec.loss;
  params.noise_sd *= noise_scale[(seed / zoo.size()) % 4];
  *spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(params, *spe);
  Rng rng(1000 + seed);
  std::vector<LossSample> feed;
  for (int e = 0; e < 12; ++e) {
    for (size_t i = 1; i <= kZooFeedPerEpoch; ++i) {
      const int64_t step = e * *spe + static_cast<int64_t>(i) * *spe / kZooFeedPerEpoch;
      feed.push_back({static_cast<double>(step), curve.SampleLossAtStep(step, &rng)});
    }
  }
  return feed;
}

// The loss decays to ~2e-9 of its start, so the beta2 candidates within 1e-9
// of the minimum loss make 1/(l - beta2) infeasible and score infinity.
std::vector<LossSample> DecayFeed() {
  std::vector<LossSample> decay;
  for (int i = 0; i <= 200; ++i) {
    decay.push_back({static_cast<double>(i), std::exp(-0.1 * i)});
  }
  return decay;
}

// How many of the first refinement pass's grid + 1 candidates are infeasible
// when `feed` is fitted whole (the model's preprocessing, its grid).
int InfeasibleInFirstPass(const std::vector<LossSample>& feed, int grid) {
  std::vector<LossSample> pts = RemoveOutliers(feed);
  NormalizeLosses(&pts);
  double min_loss = pts.front().loss;
  for (const LossSample& s : pts) {
    min_loss = std::min(min_loss, s.loss);
  }
  const double top = std::max(min_loss * 0.999, 0.0);
  int infeasible = 0;
  for (int g = 0; g <= grid; ++g) {
    infeasible += min_loss - top * g / grid <= 1e-9 ? 1 : 0;
  }
  return infeasible;
}

TEST_F(ConvergenceModelTest, CachedSweepMatchesReferenceOverSeededFeeds) {
  // 240 seeded feeds: every zoo model at four noise levels (none, half,
  // nominal, triple), half of them downsampled to 64 fit points, a third
  // Reset() half way through. The cached path's warm-started, bounded
  // beta2 sweep must pick the reference sweep's candidate, bit for bit.
  int fitted = 0;
  for (int seed = 0; seed < 240; ++seed) {
    int64_t spe = 0;
    const std::vector<LossSample> feed = ZooFeed(seed, &spe);
    ConvergenceModelOptions options;
    options.max_fit_points = seed % 2 == 0 ? 512 : 64;
    const size_t reset_at = seed % 3 == 0 ? feed.size() / 2 : feed.size() + 1;
    SCOPED_TRACE("seed " + std::to_string(seed) + " model " +
                 GetModelZoo()[seed % GetModelZoo().size()].name);
    fitted += ExpectCachedMatchesReference(feed, kZooFeedPerEpoch, reset_at, options, spe);
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(fitted, 240 * 10);
}

TEST_F(ConvergenceModelTest, CachedSweepBreaksExactTiesLikeTheReference) {
  // Noise-free l(k) = 1/(1 + k^2) from k = 0: 1/(l - beta2) is convex in k
  // for every beta2, so NNLS clamps beta1 to 0 and the k = 0 sample's
  // prediction hits the 1e12 guard. Its squared error (~1e24) absorbs every
  // later term, so all candidates of a pass tie exactly at distinct beta2.
  // The sweep must keep the lowest grid index among them, as the in-order
  // reference does, although the cached path evaluates another point first.
  std::vector<LossSample> convex;
  for (int k = 0; k <= 40; ++k) {
    convex.push_back({static_cast<double>(k), 1.0 / (1.0 + k * k)});
  }
  EXPECT_GT(ExpectCachedMatchesReference(convex, 8, convex.size() + 1, {}, 1), 0);
}

TEST_F(ConvergenceModelTest, CachedSweepMatchesReferenceWithInfeasibleCandidates) {
  // Infeasible candidates score infinity in both paths; the cached path
  // gives them no lane and no solve.
  const std::vector<LossSample> decay = DecayFeed();
  EXPECT_GT(ExpectCachedMatchesReference(decay, 20, decay.size() + 1, {}, 10), 0);
}

TEST_F(ConvergenceModelTest, CachedSweepMatchesReferenceAcrossGridShapes) {
  // The cached sweep keeps one accumulator lane per feasible candidate of a
  // pass, sized from the grid. Every grid width and pass count must match the
  // reference bit for bit, on noisy zoo feeds and on the decay feed, whose
  // first pass mixes feasible and infeasible candidates at every width.
  const std::vector<LossSample> decay = DecayFeed();
  for (const int grid : {2, 3, 7, 24, 100}) {
    for (const int passes : {1, 5}) {
      SCOPED_TRACE("grid " + std::to_string(grid) + " passes " + std::to_string(passes));
      ConvergenceModelOptions options;
      options.beta2_grid = grid;
      options.refine_passes = passes;
      const int infeasible = InfeasibleInFirstPass(decay, grid);
      EXPECT_GT(infeasible, 0);
      EXPECT_LT(infeasible, grid + 1);
      EXPECT_GT(ExpectCachedMatchesReference(decay, 20, decay.size() + 1, options, 10), 0);
      for (int seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        int64_t spe = 0;
        const std::vector<LossSample> feed = ZooFeed(seed, &spe);
        EXPECT_GT(ExpectCachedMatchesReference(feed, kZooFeedPerEpoch, feed.size() + 1,
                                               options, spe),
                  0);
      }
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST_F(ConvergenceModelTest, CachedSweepMatchesReferenceWhenBeta1SolvesToZero) {
  // l(k) = 1/(0.1 k - 0.5) + 1 from k = 10: near the true beta2,
  // 1/(l - beta2) has a negative intercept, so NNLS clamps beta1 to 0. Those
  // candidates skip the lockstep residual pass (its unguarded term needs
  // beta1 > 1e-12) and are scored by the guarded scalar sum; candidates far
  // below it keep beta1 > 0 and are scored in lockstep in the same pass.
  std::vector<LossSample> feed;
  Rng rng(41);
  for (int k = 10; k <= 140; ++k) {
    feed.push_back({static_cast<double>(k), rng.LogNormalFactor(0.002) / (0.1 * k - 0.5) + 1.0});
  }
  ConvergenceModel model;
  for (const LossSample& s : feed) {
    model.AddSample(s.step, s.loss);
  }
  ASSERT_TRUE(model.Fit());
  EXPECT_LE(model.beta1(), 1e-12);  // the winner itself took the scalar path
  EXPECT_GT(ExpectCachedMatchesReference(feed, 10, feed.size() + 1, {}, 10), 0);
}

TEST_F(ConvergenceModelTest, CachedSweepMatchesReferenceAroundTheScoreBlock) {
  // The lockstep residual pass retires candidates only at the end of each
  // kScoreBlock points. Fits of one point fewer than a block, exactly one
  // block, one more, and the same around two blocks, warm-started every 20
  // samples so the bound is tight and candidates do retire.
  const size_t block = ConvergenceModel::kScoreBlock;
  for (const size_t n : {block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1}) {
    for (int seed = 0; seed < 24; ++seed) {
      SCOPED_TRACE("points " + std::to_string(n) + " seed " + std::to_string(seed));
      int64_t spe = 0;
      std::vector<LossSample> feed = ZooFeed(seed, &spe);
      ASSERT_GE(feed.size(), n);
      feed.resize(n);
      EXPECT_GT(ExpectCachedMatchesReference(feed, kZooFeedPerEpoch, feed.size() + 1, {}, spe),
                0);
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST_F(ConvergenceModelTest, CachedSweepMatchesReferenceWhenALaneTiesTheBound) {
  // Twenty refinement passes shrink the beta2 window twelvefold each, far
  // below one ulp of beta2: the late passes' grid points round to a few
  // distinct values, so lanes other than the guess share its beta2, its
  // solve and its residual bits, and tie the lockstep bound exactly. A tie
  // is not above the bound, so those lanes are summed in full and the
  // winner rule breaks the tie by grid index, as in the reference.
  ConvergenceModelOptions options;
  options.refine_passes = 20;
  for (int seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    int64_t spe = 0;
    const std::vector<LossSample> feed = ZooFeed(seed, &spe);
    EXPECT_GT(ExpectCachedMatchesReference(feed, kZooFeedPerEpoch, feed.size() + 1, options,
                                           spe),
              0);
    if (HasFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Speed model
// ---------------------------------------------------------------------------

class SpeedModelTest : public ::testing::Test {
 protected:
  // Ground-truth oracle from the communication model, with optional noise.
  static SpeedOracle MakeOracle(const ModelSpec& model, TrainingMode mode,
                                double noise_sd, Rng* rng) {
    return [&model, mode, noise_sd, rng](int p, int w) {
      StepTimeInputs in;
      in.model = &model;
      in.mode = mode;
      in.num_ps = p;
      in.num_workers = w;
      CommConfig config;
      double speed = TrainingSpeed(in, config);
      if (noise_sd > 0.0 && rng != nullptr) {
        speed *= rng->LogNormalFactor(noise_sd);
      }
      return speed;
    };
  }

  static double MeanAbsRelError(const SpeedModel& model, const SpeedOracle& truth,
                                int max_p, int max_w) {
    double sum = 0.0;
    int count = 0;
    for (int p = 1; p <= max_p; p += 2) {
      for (int w = 1; w <= max_w; w += 2) {
        const double t = truth(p, w);
        const double e = model.Estimate(p, w);
        sum += std::abs(e - t) / t;
        ++count;
      }
    }
    return sum / count;
  }
};

TEST_F(SpeedModelTest, SyncFitsGroundTruthClosely) {
  const ModelSpec& spec = FindModel("ResNet-50");
  SpeedOracle oracle = MakeOracle(spec, TrainingMode::kSync, 0.0, nullptr);
  SpeedModel model(TrainingMode::kSync, spec.default_sync_batch);
  for (int p = 2; p <= 20; p += 3) {
    for (int w = 2; w <= 20; w += 3) {
      model.AddSample(p, w, oracle(p, w));
    }
  }
  ASSERT_TRUE(model.Fit());
  EXPECT_LT(MeanAbsRelError(model, oracle, 20, 20), 0.10);
}

TEST_F(SpeedModelTest, AsyncFitsGroundTruthClosely) {
  const ModelSpec& spec = FindModel("ResNet-50");
  SpeedOracle oracle = MakeOracle(spec, TrainingMode::kAsync, 0.0, nullptr);
  SpeedModel model(TrainingMode::kAsync, 0);
  for (int p = 2; p <= 20; p += 3) {
    for (int w = 2; w <= 20; w += 3) {
      model.AddSample(p, w, oracle(p, w));
    }
  }
  ASSERT_TRUE(model.Fit());
  EXPECT_LT(MeanAbsRelError(model, oracle, 20, 20), 0.10);
}

TEST_F(SpeedModelTest, TenSamplesReachTenPercentError) {
  // Fig 8: ~10 (p, w) samples suffice for <10% speed-estimation error.
  const ModelSpec& spec = FindModel("ResNet-50");
  Rng noise(51);
  SpeedOracle noisy = MakeOracle(spec, TrainingMode::kSync, 0.02, &noise);
  SpeedOracle truth = MakeOracle(spec, TrainingMode::kSync, 0.0, nullptr);
  SpeedModel model(TrainingMode::kSync, spec.default_sync_batch);
  Rng rng(53);
  InitializeSpeedModel(&model, noisy, /*count=*/10, /*max_ps=*/20, /*max_workers=*/20,
                       &rng);
  ASSERT_TRUE(model.fitted());
  EXPECT_LT(MeanAbsRelError(model, truth, 20, 20), 0.12);
}

TEST_F(SpeedModelTest, ThetaNonNegativeAndResidualSmall) {
  const ModelSpec& spec = FindModel("Seq2Seq");
  SpeedOracle oracle = MakeOracle(spec, TrainingMode::kSync, 0.0, nullptr);
  SpeedModel model(TrainingMode::kSync, spec.default_sync_batch);
  for (int p = 1; p <= 16; p += 2) {
    for (int w = 1; w <= 16; w += 2) {
      model.AddSample(p, w, oracle(p, w));
    }
  }
  ASSERT_TRUE(model.Fit());
  ASSERT_EQ(model.theta().size(), 5u);
  for (double t : model.theta()) {
    EXPECT_GE(t, 0.0);
  }
  // The ground truth includes a batch-efficiency floor outside the Eqn-4
  // family, so the fit is not exact — but it stays within a few percent.
  EXPECT_LT(MeanAbsRelError(model, oracle, 16, 16), 0.08);
}

TEST_F(SpeedModelTest, MoreSamplesReduceError) {
  // Fig 8's diminishing-return shape: error(5 samples) >= error(30 samples).
  const ModelSpec& spec = FindModel("ResNet-50");
  Rng noise1(55);
  Rng noise2(55);
  SpeedOracle noisy1 = MakeOracle(spec, TrainingMode::kSync, 0.05, &noise1);
  SpeedOracle noisy2 = MakeOracle(spec, TrainingMode::kSync, 0.05, &noise2);
  SpeedOracle truth = MakeOracle(spec, TrainingMode::kSync, 0.0, nullptr);

  SpeedModel few(TrainingMode::kSync, spec.default_sync_batch);
  Rng rng1(57);
  InitializeSpeedModel(&few, noisy1, 5, 20, 20, &rng1);
  SpeedModel many(TrainingMode::kSync, spec.default_sync_batch);
  Rng rng2(57);
  InitializeSpeedModel(&many, noisy2, 30, 20, 20, &rng2);

  ASSERT_TRUE(few.fitted());
  ASSERT_TRUE(many.fitted());
  EXPECT_LE(MeanAbsRelError(many, truth, 20, 20),
            MeanAbsRelError(few, truth, 20, 20) + 0.03);
}

TEST_F(SpeedModelTest, CachedFitsMatchFromScratchBitwise) {
  // Incremental Gram refits must reproduce the dense refit exactly after
  // every new (noisy) sample, in both training modes.
  const ModelSpec& spec = FindModel("Seq2Seq");
  for (const TrainingMode mode : {TrainingMode::kSync, TrainingMode::kAsync}) {
    SCOPED_TRACE(mode == TrainingMode::kSync ? "sync" : "async");
    Rng noise(73);
    const SpeedOracle oracle = MakeOracle(spec, mode, 0.05, &noise);
    SpeedModel cached(mode, spec.default_sync_batch);
    SpeedModel scratch(mode, spec.default_sync_batch);
    scratch.set_caching(false);
    Rng pick(79);
    for (int i = 0; i < 40; ++i) {
      const int p = static_cast<int>(pick.UniformInt(1, 16));
      const int w = static_cast<int>(pick.UniformInt(1, 16));
      const double speed = oracle(p, w);
      cached.AddSample(p, w, speed);
      scratch.AddSample(p, w, speed);
      ASSERT_EQ(cached.Fit(), scratch.Fit()) << "sample " << i;
      if (!scratch.fitted()) {
        continue;
      }
      EXPECT_EQ(cached.theta(), scratch.theta()) << "sample " << i;
      EXPECT_EQ(cached.residual(), scratch.residual()) << "sample " << i;
      EXPECT_EQ(cached.Estimate(p, w), scratch.Estimate(p, w)) << "sample " << i;
    }
    EXPECT_TRUE(scratch.fitted());
  }
}

TEST_F(SpeedModelTest, ResidualIsPinned) {
  // residual() is summed when read, over the samples of the last successful
  // fit. The constants are what the sum made at every fit gave, after fits
  // at 3, 5, 8, 13, 21 and 34 samples of a seeded noisy feed.
  struct Feed {
    TrainingMode mode;
    uint64_t seed;
    double want[6];
  };
  const Feed feeds[] = {
      {TrainingMode::kSync,
       83,
       {0x1.a7db31c536d4dp-16, 0x1.9baee2a52144ep-4, 0x1.506a592473147p-2,
        0x1.deb24ca9e0e24p-1, 0x1.567e21990a13fp+1, 0x1.61c3c3aa6c596p+2}},
      {TrainingMode::kAsync,
       89,
       {0x1.f1e9f5a69aa96p-5, 0x1.a282406613f8bp+0, 0x1.7bc3f0b2fa988p+1,
        0x1.838f87c7fc949p+2, 0x1.aba7c791fb1bap+2, 0x1.75b4ca3d943d3p+3}},
  };
  const ModelSpec& spec = FindModel("Seq2Seq");
  for (const Feed& feed : feeds) {
    SCOPED_TRACE(feed.mode == TrainingMode::kSync ? "sync" : "async");
    Rng noise(feed.seed);
    const SpeedOracle oracle = MakeOracle(spec, feed.mode, 0.05, &noise);
    SpeedModel model(feed.mode, spec.default_sync_batch);
    EXPECT_EQ(model.residual(), 0.0);
    Rng pick(feed.seed + 1);
    size_t fit = 0;
    for (int i = 1; i <= 34; ++i) {
      const int p = static_cast<int>(pick.UniformInt(1, 16));
      const int w = static_cast<int>(pick.UniformInt(1, 16));
      model.AddSample(p, w, oracle(p, w));
      if (i == 3 || i == 5 || i == 8 || i == 13 || i == 21 || i == 34) {
        ASSERT_TRUE(model.Fit()) << i << " samples";
        EXPECT_EQ(model.residual(), feed.want[fit++]) << i << " samples";
      }
    }
    // The slowest positive speed inverts to an infinite target, so every
    // A^T b entry is infinite, no variable clears the (infinite) tolerance,
    // and the all-zero solution is degenerate: the refit keeps the previous
    // theta, and residual() still sums the 34 samples that theta was fitted
    // on, not the new one.
    const std::vector<double> theta = model.theta();
    model.AddSample(1, 1, std::numeric_limits<double>::denorm_min());
    ASSERT_TRUE(model.Fit());
    EXPECT_EQ(model.theta(), theta);
    EXPECT_EQ(model.residual(), feed.want[5]);
    model.Reset();
    EXPECT_EQ(model.residual(), 0.0);
  }
}

TEST_F(SpeedModelTest, RejectsInvalidSamples) {
  SpeedModel model(TrainingMode::kAsync, 0);
  model.AddSample(1, 1, 0.0);
  model.AddSample(1, 1, -5.0);
  model.AddSample(1, 1, std::nan(""));
  EXPECT_EQ(model.num_samples(), 0u);
  EXPECT_FALSE(model.Fit());
}

TEST(SamplerTest, PairsAreDistinctAndInRange) {
  Rng rng(61);
  const auto pairs = SelectSamplePairs(10, 12, 18, &rng);
  EXPECT_EQ(pairs.size(), 10u);
  for (const auto& [p, w] : pairs) {
    EXPECT_GE(p, 1);
    EXPECT_LE(p, 12);
    EXPECT_GE(w, 1);
    EXPECT_LE(w, 18);
  }
  // std::set semantics guarantee distinctness; double-check anyway.
  for (size_t i = 0; i < pairs.size(); ++i) {
    for (size_t j = i + 1; j < pairs.size(); ++j) {
      EXPECT_TRUE(pairs[i] != pairs[j]);
    }
  }
}

TEST(SamplerTest, CountClampedToGridSize) {
  Rng rng(63);
  const auto pairs = SelectSamplePairs(100, 3, 3, &rng);
  EXPECT_EQ(pairs.size(), 9u);
}

// A grid past 2^31 cells must not wrap to zero (or a negative count) in int.
TEST(SamplerTest, GridLargerThanIntKeepsTheRequestedCount) {
  Rng rng(8);
  EXPECT_EQ(SelectSamplePairs(10, 65536, 65536, &rng).size(), 10u);
  EXPECT_EQ(SelectSamplePairs(10, 50000, 50000, &rng).size(), 10u);
}

}  // namespace
}  // namespace optimus
