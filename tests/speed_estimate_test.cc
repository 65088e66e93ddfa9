// SpeedEstimate values (src/sched/speed_estimate.h) against in-test copies of
// the closures they replace. Every kind must agree bit for bit over the whole
// (p, w) grid a round can probe, BatchSpeed must agree at every goodput rung,
// and equality must hold exactly when two estimates are pointwise identical.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/job.h"
#include "src/models/model_zoo.h"
#include "src/perfmodel/speed_model.h"
#include "src/pserver/comm_model.h"
#include "src/sched/goodput_allocator.h"
#include "src/sched/scheduler.h"
#include "src/sched/speed_estimate.h"

namespace optimus {
namespace {

constexpr int kMaxP = 32;
constexpr int kMaxW = 32;

// Bitwise equality: distinguishes -0.0 from 0.0 and compares NaNs by payload.
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

// --- In-test copies of the closures the value kinds replace ----------------

// An independent copy of SpeedModel::Estimate: features in Eqn-3/4 order,
// summed left to right from 0.0, cut at 1e-12.
double ReferenceEstimate(const SpeedModel& model, int p_in, int w_in) {
  const double p = static_cast<double>(p_in);
  const double w = static_cast<double>(w_in);
  const bool async = model.mode() == TrainingMode::kAsync;
  const std::vector<double> feat =
      async ? std::vector<double>{1.0, w / p, w, p}
            : std::vector<double>{model.global_batch() / w, 1.0, w / p, w, p};
  double t = 0.0;
  for (size_t c = 0; c < feat.size(); ++c) {
    t += model.theta()[c] * feat[c];
  }
  if (t <= 1e-12) {
    return 0.0;
  }
  return async ? w / t : 1.0 / t;
}

double ReferenceFitted(const SpeedModel& model, double spe, int p, int w) {
  if (!model.fitted()) {
    return 0.0;
  }
  return ReferenceEstimate(model, p, w) / spe;
}

double ReferenceAllReduce(const SpeedModel& model, double spe, int /*p*/, int w) {
  if (!model.fitted()) {
    return 0.0;
  }
  return ReferenceEstimate(model, 1, w) / spe;
}

double ReferenceNaive(const SpeedModel& model, double spe, int /*p*/, int w) {
  if (!model.fitted()) {
    return 0.0;
  }
  return ReferenceEstimate(model, 1, 1) * static_cast<double>(w) / spe;
}

StepTimeInputs ReferenceSpecInputs(const JobSpec& spec, int p, int w) {
  StepTimeInputs in;
  in.model = spec.model;
  in.mode = spec.mode;
  in.comm = spec.comm;
  in.num_ps = p;
  in.num_workers = w;
  in.global_batch = spec.GlobalBatch();
  in.async_minibatch = spec.AsyncMinibatch();
  return in;
}

double ReferenceOracle(const JobSpec& spec, const CommConfig& comm, double spe, double err,
                       double span, int p, int w) {
  const double tilt = 2.0 * (p + w) / span - 1.0;
  return TrainingSpeed(ReferenceSpecInputs(spec, p, w), comm) / spe * (1.0 + err * tilt);
}

// What-if's candidate closure: the oracle without the tilt factor.
double ReferenceCandidate(const JobSpec& spec, const CommConfig& comm, double spe, int p,
                          int w) {
  return TrainingSpeed(ReferenceSpecInputs(spec, p, w), comm) / spe;
}

template <typename Base>
double ReferenceBatchSpeed(const JobSpec& spec, const CommConfig& comm, const Base& base,
                           int p, int w, int b) {
  StepTimeInputs in = ReferenceSpecInputs(spec, p, w);
  const double ref_speed = TrainingSpeed(in, comm);
  in.global_batch = b;
  const double b_speed = TrainingSpeed(in, comm);
  const double ratio = ref_speed > 0.0 ? b_speed / ref_speed : 1.0;
  return base(p, w) * ratio;
}

// --- Fixtures ---------------------------------------------------------------

JobSpec Spec(const std::string& model, TrainingMode mode, CommMode comm) {
  JobSpec spec;
  spec.id = 1;
  spec.model = &FindModel(model);
  spec.mode = mode;
  spec.comm = comm;
  spec.dataset_scale = 0.01;
  spec.max_ps = kMaxP;
  spec.max_workers = kMaxW;
  return spec;
}

// A model fitted on ground-truth speeds of `spec` at a few (p, w) points; the
// p = 1 row only for all-reduce specs.
SpeedModel FittedModel(const JobSpec& spec, double scale = 1.0) {
  SpeedModel model(spec.mode, spec.GlobalBatch());
  const bool allreduce = spec.comm == CommMode::kAllReduce;
  for (const auto& [p, w] : {std::pair{1, 1}, {2, 4}, {4, 4}, {4, 8}, {8, 16}, {16, 16}}) {
    const double speed = TrainingSpeed(ReferenceSpecInputs(spec, allreduce ? 0 : p, w),
                                       CommConfig{});
    model.AddSample(allreduce ? 1 : p, w, speed * scale);
  }
  EXPECT_TRUE(model.Fit());
  return model;
}

// Calls check(p, w) for p in [min_p, max_p] and every w: p starts at 0 where
// the estimate accepts it.
template <typename Check>
void ForGrid(int min_p, const Check& check, int max_p = kMaxP) {
  for (int p = min_p; p <= max_p; ++p) {
    for (int w = 1; w <= kMaxW; ++w) {
      check(p, w);
    }
  }
}

// --- Kinds ------------------------------------------------------------------

TEST(SpeedEstimateTest, FittedMatchesModelEstimateBitForBit) {
  for (const TrainingMode mode : {TrainingMode::kSync, TrainingMode::kAsync}) {
    const JobSpec spec = Spec("ResNet-50", mode, CommMode::kParameterServer);
    const SpeedModel model = FittedModel(spec);
    const double spe = static_cast<double>(spec.StepsPerEpoch());
    const SpeedEstimate e = SpeedEstimate::Fitted(model, spe, /*pin_ps=*/false);
    ASSERT_EQ(e.kind(), SpeedEstimate::Kind::kFitted);
    EXPECT_FALSE(e.memoized());
    ForGrid(1, [&](int p, int w) {
      EXPECT_TRUE(SameBits(e(p, w), ReferenceFitted(model, spe, p, w)))
          << "mode " << static_cast<int>(mode) << " p " << p << " w " << w;
    });
    // p = 0 is outside a parameter-server estimate's domain, as it was for
    // SpeedModel::Estimate.
    EXPECT_DEATH(e(0, 1), "");
    EXPECT_DEATH(e(1, 0), "");
  }
}

TEST(SpeedEstimateTest, FittedHonoursTheStepTimeCut) {
  // Speeds of ~1e14 steps/s fit a θ whose step time falls below 1e-12 on part
  // of the grid: f is 0 there, as the model reports.
  const JobSpec spec = Spec("ResNet-50", TrainingMode::kSync, CommMode::kParameterServer);
  const SpeedModel model = FittedModel(spec, 1e14);
  const SpeedEstimate e = SpeedEstimate::Fitted(model, 7.0, /*pin_ps=*/false);
  int cut = 0;
  int kept = 0;
  ForGrid(1, [&](int p, int w) {
    const double want = ReferenceFitted(model, 7.0, p, w);
    EXPECT_TRUE(SameBits(e(p, w), want)) << "p " << p << " w " << w;
    ++(want == 0.0 ? cut : kept);
  });
  EXPECT_GT(cut, 0);
  EXPECT_GT(kept, 0);
}

TEST(SpeedEstimateTest, AllReduceRowIsPinnedToOnePs) {
  const JobSpec spec = Spec("ResNext-110", TrainingMode::kSync, CommMode::kAllReduce);
  const SpeedModel model = FittedModel(spec);
  const double spe = static_cast<double>(spec.StepsPerEpoch());
  const SpeedEstimate e = SpeedEstimate::Fitted(model, spe, /*pin_ps=*/true);
  ForGrid(0, [&](int p, int w) {
    EXPECT_TRUE(SameBits(e(p, w), ReferenceAllReduce(model, spe, p, w)))
        << "p " << p << " w " << w;
  });
}

TEST(SpeedEstimateTest, UnfittedModelIsZero) {
  const SpeedModel model(TrainingMode::kSync, 256);
  ASSERT_FALSE(model.fitted());
  for (const SpeedEstimate& e :
       {SpeedEstimate::Fitted(model, 10.0, false), SpeedEstimate::Fitted(model, 10.0, true),
        SpeedEstimate::NaiveLinear(model, 10.0)}) {
    EXPECT_EQ(e.kind(), SpeedEstimate::Kind::kZero);
    EXPECT_TRUE(e == SpeedEstimate());
    ForGrid(0, [&](int p, int w) {
      EXPECT_TRUE(SameBits(e(p, w), ReferenceFitted(model, 10.0, p, w)));
    });
  }
}

TEST(SpeedEstimateTest, NaiveLinearMatchesBitForBit) {
  const JobSpec spec = Spec("Seq2Seq", TrainingMode::kSync, CommMode::kParameterServer);
  const SpeedModel model = FittedModel(spec);
  const double spe = static_cast<double>(spec.StepsPerEpoch());
  const SpeedEstimate e = SpeedEstimate::NaiveLinear(model, spe);
  ASSERT_EQ(e.kind(), SpeedEstimate::Kind::kNaiveLinear);
  ForGrid(0, [&](int p, int w) {
    EXPECT_TRUE(SameBits(e(p, w), ReferenceNaive(model, spe, p, w)))
        << "p " << p << " w " << w;
  });
}

TEST(SpeedEstimateTest, OracleMatchesBitForBit) {
  const CommConfig comm{40e6, 0.6};
  for (const CommMode mode : {CommMode::kParameterServer, CommMode::kAllReduce}) {
    const JobSpec spec = Spec("Inception-BN", TrainingMode::kSync, mode);
    const SchedJob header = MakeSchedJob(spec, 0.0, SpeedEstimate(), 1.0, comm);
    const double spe = static_cast<double>(spec.StepsPerEpoch());
    const double span = static_cast<double>(header.max_ps + header.max_workers);
    // All-reduce jobs live on the p == 0 row; the comm model rejects any PS.
    const int min_p = mode == CommMode::kAllReduce ? 0 : 1;
    const int max_p = mode == CommMode::kAllReduce ? 0 : kMaxP;
    for (const double err : {0.0, 0.3, -0.3}) {
      const SpeedEstimate e =
          SpeedEstimate::Oracle(StepProfile::Of(spec), comm, spe, err, span);
      ASSERT_EQ(e.kind(), SpeedEstimate::Kind::kOracle);
      EXPECT_TRUE(e.memoized());
      ForGrid(min_p, [&](int p, int w) {
        EXPECT_TRUE(SameBits(e(p, w), ReferenceOracle(spec, comm, spe, err, span, p, w)))
            << "comm " << static_cast<int>(mode) << " err " << err << " p " << p
            << " w " << w;
        if (err == 0.0) {
          EXPECT_TRUE(SameBits(e(p, w), ReferenceCandidate(spec, comm, spe, p, w)));
        }
      }, max_p);
    }
  }
}

TEST(SpeedEstimateTest, BatchSpeedMatchesAtEveryRung) {
  const CommConfig comm;
  const JobSpec spec = Spec("ResNet-50", TrainingMode::kSync, CommMode::kParameterServer);
  const StepProfile profile = StepProfile::Of(spec);
  const SpeedModel model = FittedModel(spec);
  const double spe = static_cast<double>(spec.StepsPerEpoch());
  const SpeedEstimate fitted = SpeedEstimate::Fitted(model, spe, /*pin_ps=*/false);
  const SpeedEstimate oracle = SpeedEstimate::Oracle(profile, comm, spe, 0.3, 64.0);
  EXPECT_FALSE(fitted.batch_scalable());

  for (const SpeedEstimate& base : {fitted, oracle}) {
    SchedJob job = MakeSchedJob(spec, 0.0, SpeedEstimate(), 1.0, comm);
    job.speed = base.WithBatchScaling(profile, comm);
    ASSERT_TRUE(job.speed.batch_scalable());
    const std::vector<int> rungs = GoodputAllocator::BatchRungs(job);
    ASSERT_GE(rungs.size(), 2u);
    ForGrid(1, [&](int p, int w) {
      EXPECT_TRUE(SameBits(job.speed(p, w), base(p, w)));
      for (const int b : rungs) {
        EXPECT_TRUE(SameBits(job.speed.BatchSpeed(p, w, b),
                             ReferenceBatchSpeed(spec, comm, base, p, w, b)))
            << "p " << p << " w " << w << " b " << b;
      }
    });
  }
}

// --- Equality: the surface-sharing rule -------------------------------------

double Flat(const void* ctx, int /*p*/, int /*w*/) { return *static_cast<const double*>(ctx); }
double Doubled(const void* ctx, int /*p*/, int /*w*/) {
  return 2.0 * *static_cast<const double*>(ctx);
}

TEST(SpeedEstimateTest, EqualExactlyWhenPointwiseIdentical) {
  const CommConfig comm;
  const JobSpec spec = Spec("ResNet-50", TrainingMode::kSync, CommMode::kParameterServer);
  const JobSpec other_spec = Spec("DSSM", TrainingMode::kSync, CommMode::kParameterServer);
  const StepProfile profile = StepProfile::Of(spec);
  const SpeedModel model = FittedModel(spec);
  const SpeedModel refit = FittedModel(spec);
  const SpeedModel scaled = FittedModel(spec, 2.0);
  const double one = 1.0;
  const double also_one = 1.0;

  const auto oracle = [&](double err) {
    return SpeedEstimate::Oracle(profile, comm, 10.0, err, 64.0);
  };
  // Pairs that must compare equal.
  EXPECT_TRUE(SpeedEstimate() == SpeedEstimate());
  EXPECT_TRUE(SpeedEstimate::Fitted(model, 10.0, false) ==
              SpeedEstimate::Fitted(refit, 10.0, false));
  EXPECT_TRUE(oracle(0.0) == oracle(0.0));
  EXPECT_TRUE(SpeedEstimate::Custom(&Flat, &one) == SpeedEstimate::Custom(&Flat, &one));
  EXPECT_TRUE(oracle(0.0).WithBatchScaling(profile, comm) ==
              oracle(0.0).WithBatchScaling(profile, comm));

  // Pairs that must not.
  EXPECT_FALSE(SpeedEstimate::Fitted(model, 10.0, false) ==
               SpeedEstimate::Fitted(scaled, 10.0, false));
  EXPECT_FALSE(SpeedEstimate::Fitted(model, 10.0, false) ==
               SpeedEstimate::Fitted(model, 10.0, true));
  EXPECT_FALSE(SpeedEstimate::Fitted(model, 10.0, false) ==
               SpeedEstimate::Fitted(model, 11.0, false));
  EXPECT_FALSE(SpeedEstimate::Fitted(model, 10.0, false) ==
               SpeedEstimate::NaiveLinear(model, 10.0));
  EXPECT_FALSE(SpeedEstimate::Fitted(model, 10.0, false) ==
               SpeedEstimate::Fitted(model, 10.0, false).WithBatchScaling(profile, comm));
  EXPECT_FALSE(oracle(0.0) == oracle(0.3));
  EXPECT_FALSE(oracle(0.0) == SpeedEstimate::Oracle(StepProfile::Of(other_spec), comm,
                                                    10.0, 0.0, 64.0));
  EXPECT_FALSE(oracle(0.0) ==
               SpeedEstimate::Oracle(profile, CommConfig{20e6, 0.7}, 10.0, 0.0, 64.0));
  EXPECT_FALSE(SpeedEstimate::Custom(&Flat, &one) == SpeedEstimate::Custom(&Flat, &also_one));
  EXPECT_FALSE(SpeedEstimate::Custom(&Flat, &one) == SpeedEstimate::Custom(&Doubled, &one));
  EXPECT_FALSE(SpeedEstimate() == SpeedEstimate::Custom(&Flat, &one));

  // Equal estimates hash alike.
  EXPECT_EQ(oracle(0.0).Hash(), oracle(0.0).Hash());
  EXPECT_EQ(SpeedEstimate::Fitted(model, 10.0, false).Hash(),
            SpeedEstimate::Fitted(refit, 10.0, false).Hash());
}

TEST(SpeedEstimateTest, SchedJobIsAValue) {
  static_assert(std::is_trivially_copyable_v<SpeedEstimate>);
  static_assert(std::is_trivially_copyable_v<SchedJob>);
  const double one = 1.0;
  SchedJob job;
  job.speed = SpeedEstimate::Custom(&Flat, &one);
  SchedJob copy;
  std::memcpy(static_cast<void*>(&copy), &job, sizeof(job));
  EXPECT_TRUE(copy.speed == job.speed);
  EXPECT_EQ(copy.speed(3, 4), 1.0);
}

}  // namespace
}  // namespace optimus
