#include <string>

#include <gtest/gtest.h>

#include "src/cluster/checkpoint.h"
#include "src/cluster/data_serving.h"
#include "src/cluster/job.h"
#include "src/cluster/resources.h"
#include "src/cluster/server.h"
#include "src/cluster/straggler.h"
#include "src/common/rng.h"
#include "src/models/loss_curve.h"
#include "src/models/model_zoo.h"

namespace optimus {
namespace {

TEST(ResourcesTest, ArithmeticAndAccessors) {
  Resources a(4, 8, 1, 2);
  Resources b(1, 2, 0, 1);
  Resources sum = a + b;
  EXPECT_DOUBLE_EQ(sum.cpu(), 5);
  EXPECT_DOUBLE_EQ(sum.memory_gb(), 10);
  EXPECT_DOUBLE_EQ(sum.gpu(), 1);
  EXPECT_DOUBLE_EQ(sum.bandwidth_gbps(), 3);
  Resources diff = a - b;
  EXPECT_DOUBLE_EQ(diff.cpu(), 3);
  Resources scaled = b * 3.0;
  EXPECT_DOUBLE_EQ(scaled.cpu(), 3);
  EXPECT_DOUBLE_EQ(scaled.bandwidth_gbps(), 3);
}

TEST(ResourcesTest, FitsAndNonNegative) {
  Resources cap(10, 10, 2, 1);
  EXPECT_TRUE(cap.Fits(Resources(10, 10, 2, 1)));
  EXPECT_TRUE(cap.Fits(Resources(5, 1, 0, 0)));
  EXPECT_FALSE(cap.Fits(Resources(10.5, 1, 0, 0)));
  EXPECT_FALSE(cap.Fits(Resources(0, 0, 3, 0)));
  EXPECT_TRUE(Resources(0, 0, 0, 0).IsNonNegative());
  EXPECT_FALSE((Resources(1, 1, 1, 1) - Resources(2, 0, 0, 0)).IsNonNegative());
}

TEST(ResourcesTest, DominantShareAndResource) {
  Resources capacity(100, 200, 10, 50);
  Resources demand(10, 10, 2, 5);  // shares: 0.1, 0.05, 0.2, 0.1
  EXPECT_DOUBLE_EQ(demand.DominantShare(capacity), 0.2);
  EXPECT_EQ(demand.DominantResource(capacity), ResourceType::kGpu);
  // Zero-capacity dimensions are ignored.
  Resources cpu_only_cap(100, 0, 0, 0);
  EXPECT_DOUBLE_EQ(demand.DominantShare(cpu_only_cap), 0.1);
}

TEST(ServerTest, AllocateReleaseRoundTrip) {
  Server server(0, Resources(16, 80, 0, 1));
  Resources demand(5, 10, 0, 0.1);
  EXPECT_TRUE(server.CanFit(demand));
  server.Allocate(demand);
  server.Allocate(demand);
  EXPECT_DOUBLE_EQ(server.used().cpu(), 10);
  EXPECT_DOUBLE_EQ(server.Free().cpu(), 6);
  EXPECT_FALSE(server.CanFit(Resources(7, 0, 0, 0)));
  server.Release(demand);
  EXPECT_DOUBLE_EQ(server.Free().cpu(), 11);
  server.Reset();
  EXPECT_DOUBLE_EQ(server.used().cpu(), 0);
}

TEST(ServerTest, TestbedMatchesPaper) {
  std::vector<Server> servers = BuildTestbed();
  ASSERT_EQ(servers.size(), 13u);
  int cpu_servers = 0;
  int gpu_servers = 0;
  for (const Server& s : servers) {
    if (s.capacity().gpu() > 0) {
      ++gpu_servers;
      EXPECT_DOUBLE_EQ(s.capacity().cpu(), 8);
      EXPECT_DOUBLE_EQ(s.capacity().gpu(), 2);
    } else {
      ++cpu_servers;
      EXPECT_DOUBLE_EQ(s.capacity().cpu(), 16);
      EXPECT_DOUBLE_EQ(s.capacity().memory_gb(), 80);
    }
  }
  EXPECT_EQ(cpu_servers, 7);
  EXPECT_EQ(gpu_servers, 6);
  const Resources total = TotalCapacity(servers);
  EXPECT_DOUBLE_EQ(total.cpu(), 7 * 16 + 6 * 8);
  EXPECT_DOUBLE_EQ(total.gpu(), 12);
}

TEST(ServerTest, UniformClusterAndFreeAccounting) {
  std::vector<Server> servers = BuildUniformCluster(4, Resources(8, 16, 0, 1));
  servers[0].Allocate(Resources(8, 16, 0, 1));
  const Resources free = TotalFree(servers);
  EXPECT_DOUBLE_EQ(free.cpu(), 24);
}

JobSpec MakeJobSpec(const std::string& model, TrainingMode mode) {
  JobSpec spec;
  spec.id = 1;
  spec.model = &FindModel(model);
  spec.mode = mode;
  spec.convergence_delta = 0.02;
  spec.patience = 2;
  spec.worker_demand = Resources(5, 10, 0, 0.2);
  spec.ps_demand = Resources(5, 10, 0, 0.2);
  spec.arrival_time_s = 100.0;
  return spec;
}

TEST(JobTest, StepsAndEpochs) {
  Job job(MakeJobSpec("CNN-rand", TrainingMode::kSync));
  const int64_t spe = job.spec().StepsPerEpoch();
  EXPECT_GT(spe, 0);
  job.AdvanceSteps(static_cast<double>(spe) * 2.5);
  EXPECT_NEAR(job.EpochsDone(), 2.5, 1e-9);
}

TEST(JobTest, DatasetDownscalingShrinksEpochs) {
  JobSpec spec = MakeJobSpec("ResNet-50", TrainingMode::kSync);
  const int64_t full = spec.StepsPerEpoch();
  spec.dataset_scale = 0.1;
  EXPECT_LT(spec.StepsPerEpoch(), full);
  EXPECT_NEAR(static_cast<double>(spec.StepsPerEpoch()),
              static_cast<double>(full) * 0.1, 2.0);
}

TEST(JobTest, ConvergenceDetectionRequiresPatience) {
  Job job(MakeJobSpec("CNN-rand", TrainingMode::kSync));  // delta=0.02, patience=2
  EXPECT_FALSE(job.RecordEpochLoss(1.00));
  EXPECT_FALSE(job.RecordEpochLoss(0.90));   // 10% drop: resets streak
  EXPECT_FALSE(job.RecordEpochLoss(0.895));  // 0.5% drop: streak 1
  EXPECT_TRUE(job.RecordEpochLoss(0.894));   // streak 2: converged
  EXPECT_TRUE(job.converged());
  // Further records are ignored.
  EXPECT_FALSE(job.RecordEpochLoss(0.5));
}

TEST(JobTest, LossIncreaseCountsTowardConvergence) {
  // An epoch where loss fails to decrease is "below threshold" too.
  Job job(MakeJobSpec("CNN-rand", TrainingMode::kSync));
  job.RecordEpochLoss(1.0);
  job.RecordEpochLoss(1.01);
  EXPECT_TRUE(job.RecordEpochLoss(1.02));
}

// Epoch of the first RecordEpochLoss that reports convergence when `job` is
// fed `curve`'s noiseless losses at epochs 1, 2, ...; 0 if none by `limit`.
int64_t EpochJobConverges(const LossCurve& curve, int64_t limit, Job* job) {
  for (int64_t e = 1; e <= limit; ++e) {
    if (job->RecordEpochLoss(curve.TrueLossAtEpoch(static_cast<double>(e)))) {
      return e;
    }
  }
  return 0;
}

// The job's detector and the ground-truth walk are one rule
// (src/models/convergence_rule.h): on every zoo model's noiseless curve the
// job converges exactly at LossCurve::EpochsToConverge.
TEST(JobTest, DetectorMatchesGroundTruthOnNoiselessCurves) {
  for (const ModelSpec& model : GetModelZoo()) {
    for (double delta : {0.01, 0.02, 0.03, 0.05}) {
      for (int patience : {1, 2, 3, 5}) {
        SCOPED_TRACE(model.name + " delta=" + std::to_string(delta) +
                     " patience=" + std::to_string(patience));
        JobSpec spec = MakeJobSpec(model.name, TrainingMode::kSync);
        spec.convergence_delta = delta;
        spec.patience = patience;
        Job job(spec);
        const LossCurve curve(model.loss, spec.StepsPerEpoch());
        const int64_t truth = curve.EpochsToConverge(delta, patience);
        EXPECT_EQ(EpochJobConverges(curve, truth + 1, &job), truth);
      }
    }
  }
}

// The one known offset: the walk's first comparison is epoch 1 against
// epoch 0, a job's is epoch 2 against epoch 1. On a curve whose epoch-0 -> 1
// drop is already below delta the walk counts epoch 1 and the job cannot, so
// the job converges one epoch later.
TEST(JobTest, DetectorConvergesOneEpochLaterWhenTheFirstDropIsBelowDelta) {
  LossCurveParams params;
  params.c0 = 0.001;  // every per-epoch drop is under 0.07%
  params.c1 = 1.0;
  params.c2 = 0.5;
  const LossCurve curve(params, /*steps_per_epoch=*/1);
  Job job(MakeJobSpec("CNN-rand", TrainingMode::kSync));  // delta=0.02, patience=2
  ASSERT_EQ(curve.EpochsToConverge(0.02, 2), 2);
  EXPECT_EQ(EpochJobConverges(curve, 10, &job), 3);
}

TEST(JobTest, ScalingEventsCountedOnlyAfterFirstAllocation) {
  Job job(MakeJobSpec("DSSM", TrainingMode::kAsync));
  EXPECT_FALSE(job.SetAllocation(2, 4, {}));  // first allocation: no scaling
  EXPECT_EQ(job.num_scalings(), 0);
  EXPECT_FALSE(job.SetAllocation(2, 4, {}));  // unchanged: no scaling
  EXPECT_TRUE(job.SetAllocation(3, 4, {}));   // changed: scaling event
  EXPECT_EQ(job.num_scalings(), 1);
  EXPECT_FALSE(job.SetAllocation(0, 0, {}));  // pause: not a scaling event
  EXPECT_TRUE(job.SetAllocation(3, 5, {}));
  EXPECT_EQ(job.num_scalings(), 2);
}

TEST(JobTest, StallAccounting) {
  Job job(MakeJobSpec("DSSM", TrainingMode::kAsync));
  job.AddStall(10.0);
  EXPECT_DOUBLE_EQ(job.ConsumeStall(4.0), 4.0);
  EXPECT_DOUBLE_EQ(job.stall_remaining_s(), 6.0);
  EXPECT_DOUBLE_EQ(job.ConsumeStall(100.0), 6.0);
  EXPECT_DOUBLE_EQ(job.stall_remaining_s(), 0.0);
  EXPECT_DOUBLE_EQ(job.total_stall_s(), 10.0);
}

TEST(JobTest, JctIsCompletionMinusArrival) {
  Job job(MakeJobSpec("DSSM", TrainingMode::kAsync));  // arrival 100
  job.MarkCompleted(450.0);
  EXPECT_EQ(job.state(), JobState::kCompleted);
  EXPECT_DOUBLE_EQ(job.Jct(), 350.0);
}

TEST(DataServingTest, ExampleBytesVaryByModality) {
  EXPECT_GT(EstimateExampleBytes(FindModel("DeepSpeech2")),
            EstimateExampleBytes(FindModel("ResNet-50")));
  EXPECT_GT(EstimateExampleBytes(FindModel("ResNet-50")),
            EstimateExampleBytes(FindModel("CNN-rand")));
}

TEST(DataServingTest, InitialAssignmentIsBalanced) {
  DataServing data(100 * kDefaultChunkBytes);
  EXPECT_EQ(data.num_chunks(), 100);
  data.AssignInitial(7);
  EXPECT_LE(data.MaxMinSpread(), 1);
  std::vector<int64_t> counts = data.ChunksPerWorker();
  int64_t total = 0;
  for (int64_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, 100);
}

TEST(DataServingTest, RebalancePreservesBalanceInvariant) {
  DataServing data(97 * kDefaultChunkBytes);
  data.AssignInitial(5);
  for (int workers : {8, 3, 10, 1, 6}) {
    data.Rebalance(workers);
    EXPECT_LE(data.MaxMinSpread(), 1) << "workers=" << workers;
    std::vector<int64_t> counts = data.ChunksPerWorker();
    int64_t total = 0;
    for (int64_t c : counts) {
      total += c;
    }
    EXPECT_EQ(total, 97);
  }
}

TEST(DataServingTest, RebalanceMovesMinimalChunks) {
  DataServing data(100 * kDefaultChunkBytes);
  data.AssignInitial(4);  // 25 each
  // Going 4 -> 5 workers: targets are 20 each; exactly 20 chunks must move.
  EXPECT_EQ(data.Rebalance(5), 20);
  // No-op rebalance moves nothing.
  EXPECT_EQ(data.Rebalance(5), 0);
}

TEST(DataServingTest, ShrinkReassignsOrphanedChunks) {
  DataServing data(30 * kDefaultChunkBytes);
  data.AssignInitial(10);  // 3 chunks each
  const int64_t moved = data.Rebalance(3);
  // Workers 3..9 owned 21 chunks; all of them must move.
  EXPECT_EQ(moved, 21);
  EXPECT_LE(data.MaxMinSpread(), 0);
}

TEST(CheckpointTest, StallScalesWithModelSize) {
  const double small = CheckpointStallSeconds(FindModel("ResNext-110"));
  const double large = CheckpointStallSeconds(FindModel("DeepSpeech2"));
  EXPECT_GT(large, small);
  // DeepSpeech2: 38M params * 4B * 2 / 100MB/s + 15s = 3.04 + 15.
  EXPECT_NEAR(large, 2.0 * 38e6 * 4 / 100e6 + 15.0, 1e-9);
}

TEST(CheckpointTest, ScalingBudget) {
  CheckpointConfig unlimited;
  EXPECT_TRUE(ScalingAllowed(1000, unlimited));
  CheckpointConfig capped;
  capped.max_scalings_per_job = 3;
  EXPECT_TRUE(ScalingAllowed(2, capped));
  EXPECT_FALSE(ScalingAllowed(3, capped));
}

TEST(StragglerTest, DisabledInjectionNeverSlows) {
  StragglerModel model(StragglerConfig{}, /*handling=*/true);  // prob 0
  Job job(MakeJobSpec("DSSM", TrainingMode::kAsync));
  job.SetAllocation(2, 4, {});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    model.Step(&job, &rng);
  }
  EXPECT_DOUBLE_EQ(job.slowest_worker_factor(), 1.0);
  EXPECT_EQ(model.injections(), 0);
}

TEST(StragglerTest, InjectionSlowsAndHandlerReplaces) {
  StragglerConfig config;
  config.injection_prob_per_interval = 1.0;  // always inject
  config.slow_factor_lo = 0.2;
  config.slow_factor_hi = 0.4;  // always below detect threshold 0.5
  StragglerModel model(config, /*handling=*/true);
  Job job(MakeJobSpec("DSSM", TrainingMode::kAsync));
  job.SetAllocation(2, 4, {});
  Rng rng(2);
  const bool replaced = model.Step(&job, &rng);
  EXPECT_TRUE(replaced);
  // Handler restored full speed and charged the replacement stall.
  EXPECT_DOUBLE_EQ(job.slowest_worker_factor(), 1.0);
  EXPECT_DOUBLE_EQ(job.stall_remaining_s(), kStragglerReplaceDelayS);
  EXPECT_EQ(model.replacements(), 1);
}

TEST(StragglerTest, MildStragglerToleratedWhenAboveThreshold) {
  StragglerConfig config;
  config.injection_prob_per_interval = 1.0;
  config.slow_factor_lo = 0.8;
  config.slow_factor_hi = 0.9;  // above detect threshold
  StragglerModel model(config, /*handling=*/true);
  Job job(MakeJobSpec("DSSM", TrainingMode::kAsync));
  job.SetAllocation(2, 4, {});
  Rng rng(3);
  EXPECT_FALSE(model.Step(&job, &rng));
  EXPECT_LT(job.slowest_worker_factor(), 1.0);
  EXPECT_GE(job.slowest_worker_factor(), 0.8);
  EXPECT_EQ(model.replacements(), 0);
}

TEST(StragglerTest, HandlingDisabledLeavesStragglerInPlace) {
  StragglerConfig config;
  config.injection_prob_per_interval = 1.0;
  config.slow_factor_lo = 0.2;
  config.slow_factor_hi = 0.3;
  StragglerModel model(config, /*handling=*/false);
  Job job(MakeJobSpec("DSSM", TrainingMode::kAsync));
  job.SetAllocation(2, 4, {});
  Rng rng(4);
  EXPECT_FALSE(model.Step(&job, &rng));
  EXPECT_LT(job.slowest_worker_factor(), 0.5);
  EXPECT_DOUBLE_EQ(job.stall_remaining_s(), 0.0);
}

}  // namespace
}  // namespace optimus
