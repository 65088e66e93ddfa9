// Parameterized property sweeps: invariants checked across the whole model
// zoo, both training modes, and every allocator / placement policy.

#include <cmath>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/models/loss_curve.h"
#include "src/models/model_zoo.h"
#include "src/perfmodel/convergence_model.h"
#include "src/perfmodel/speed_model.h"
#include "src/pserver/comm_model.h"
#include "src/pserver/event_sim.h"
#include "src/sched/baseline_allocators.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Step-time model invariants, swept over (model x training mode).
// ---------------------------------------------------------------------------

using ModelMode = std::tuple<std::string, TrainingMode>;

class CommModelSweep : public ::testing::TestWithParam<ModelMode> {
 protected:
  const ModelSpec& model() const { return FindModel(std::get<0>(GetParam())); }
  TrainingMode mode() const { return std::get<1>(GetParam()); }

  StepTimeInputs Inputs(int p, int w) const {
    StepTimeInputs in;
    in.model = &model();
    in.mode = mode();
    in.num_ps = p;
    in.num_workers = w;
    return in;
  }
};

TEST_P(CommModelSweep, SpeedPositiveAndFinite) {
  for (int p : {1, 4, 16}) {
    for (int w : {1, 4, 16}) {
      const double speed = TrainingSpeed(Inputs(p, w), CommConfig{});
      EXPECT_GT(speed, 0.0) << "p=" << p << " w=" << w;
      EXPECT_TRUE(std::isfinite(speed));
    }
  }
}

TEST_P(CommModelSweep, BreakdownComponentsNonNegativeAndSum) {
  const StepTimeBreakdown b = ComputeStepTime(Inputs(4, 6), CommConfig{});
  EXPECT_GE(b.forward_s, 0.0);
  EXPECT_GE(b.backward_s, 0.0);
  EXPECT_GE(b.transfer_s, 0.0);
  EXPECT_GE(b.update_s, 0.0);
  EXPECT_GE(b.overhead_s, 0.0);
  EXPECT_NEAR(b.total_s,
              b.forward_s + b.backward_s + b.transfer_s + b.update_s + b.overhead_s,
              1e-12);
}

TEST_P(CommModelSweep, MoreBandwidthNeverSlower) {
  CommConfig slow;
  slow.container_bandwidth_bps = 25e6;
  CommConfig fast;
  fast.container_bandwidth_bps = 100e6;
  for (int p : {2, 8}) {
    for (int w : {2, 8}) {
      EXPECT_GE(TrainingSpeed(Inputs(p, w), fast),
                TrainingSpeed(Inputs(p, w), slow) - 1e-12)
          << "p=" << p << " w=" << w;
    }
  }
}

TEST_P(CommModelSweep, ImbalanceNeverHelps) {
  StepTimeInputs balanced = Inputs(8, 8);
  StepTimeInputs skewed = Inputs(8, 8);
  skewed.load = BalancedLoadMetrics(model().TotalParams(), 8, model().num_param_blocks);
  skewed.load.max_param_fraction = 0.3;
  skewed.load_valid = true;
  EXPECT_LE(TrainingSpeed(skewed, CommConfig{}),
            TrainingSpeed(balanced, CommConfig{}) + 1e-12);
}

TEST_P(CommModelSweep, StragglerNeverHelps) {
  StepTimeInputs healthy = Inputs(4, 6);
  StepTimeInputs straggling = Inputs(4, 6);
  straggling.slowest_worker_factor = 0.6;
  EXPECT_LE(TrainingSpeed(straggling, CommConfig{}),
            TrainingSpeed(healthy, CommConfig{}) + 1e-12);
}

TEST_P(CommModelSweep, EventSimulationAgreesWithin50Percent) {
  // Cross-validation of the closed form against the fluid-flow simulation,
  // for every model and mode.
  const StepTimeInputs in = Inputs(6, 6);
  const double closed = TrainingSpeed(in, CommConfig{});
  const double simulated = SimulateStep(in, CommConfig{}).speed;
  EXPECT_NEAR(simulated, closed, 0.5 * closed);
}

std::vector<ModelMode> AllModelModes() {
  std::vector<ModelMode> out;
  for (const ModelSpec& spec : GetModelZoo()) {
    out.push_back({spec.name, TrainingMode::kSync});
    out.push_back({spec.name, TrainingMode::kAsync});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllModels, CommModelSweep,
                         ::testing::ValuesIn(AllModelModes()),
                         [](const ::testing::TestParamInfo<ModelMode>& info) {
                           std::string name = std::get<0>(info.param) + "_" +
                                              TrainingModeName(std::get<1>(info.param));
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Convergence-prediction quality, swept over the model zoo.
// ---------------------------------------------------------------------------

class ConvergenceSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ConvergenceSweep, HalfTrainingPredictionWithin35Percent) {
  const ModelSpec& spec = FindModel(GetParam());
  const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(spec.loss, spe);
  const double delta = 0.02;
  const int patience = 3;
  const int64_t truth = curve.EpochsToConverge(delta, patience);

  ConvergenceModel model;
  Rng rng(0xC0FFEE);
  const int observe = std::max<int64_t>(4, truth / 2);
  for (int e = 0; e < observe; ++e) {
    for (int i = 1; i <= 20; ++i) {
      const int64_t step = e * spe + i * spe / 20;
      model.AddSample(static_cast<double>(step), curve.SampleLossAtStep(step, &rng));
    }
  }
  ASSERT_TRUE(model.Fit());
  const int64_t predicted = model.PredictTotalEpochs(delta, patience, spe);
  const double err =
      std::abs(static_cast<double>(predicted - truth)) / static_cast<double>(truth);
  EXPECT_LT(err, 0.35) << "predicted " << predicted << " truth " << truth;
}

TEST_P(ConvergenceSweep, SpeedModelTenSamplesUnder15PercentError) {
  const ModelSpec& spec = FindModel(GetParam());
  SpeedModel model(TrainingMode::kSync, spec.default_sync_batch);
  Rng rng(0xBEEF);
  // Ten spread samples with light measurement noise.
  for (auto [p, w] : {std::pair{1, 1}, {16, 16}, {8, 8}, {16, 4}, {4, 16},
                      {2, 8}, {8, 2}, {12, 6}, {6, 12}, {3, 3}}) {
    StepTimeInputs in;
    in.model = &spec;
    in.mode = TrainingMode::kSync;
    in.num_ps = p;
    in.num_workers = w;
    model.AddSample(p, w, TrainingSpeed(in, CommConfig{}) * rng.LogNormalFactor(0.02));
  }
  ASSERT_TRUE(model.Fit());
  double err_sum = 0.0;
  int count = 0;
  for (int p = 2; p <= 14; p += 4) {
    for (int w = 2; w <= 14; w += 4) {
      StepTimeInputs in;
      in.model = &spec;
      in.mode = TrainingMode::kSync;
      in.num_ps = p;
      in.num_workers = w;
      const double truth = TrainingSpeed(in, CommConfig{});
      err_sum += std::abs(model.Estimate(p, w) - truth) / truth;
      ++count;
    }
  }
  EXPECT_LT(err_sum / count, 0.15);
}

std::vector<std::string> AllModelNames() {
  std::vector<std::string> out;
  for (const ModelSpec& spec : GetModelZoo()) {
    out.push_back(spec.name);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ConvergenceSweep,
                         ::testing::ValuesIn(AllModelNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Allocator invariants, swept over policies.
// ---------------------------------------------------------------------------

enum class AllocKind { kOptimus, kDrf, kTetris, kFifo };

class AllocatorSweep : public ::testing::TestWithParam<AllocKind> {
 protected:
  static std::unique_ptr<Allocator> Make(AllocKind kind) {
    switch (kind) {
      case AllocKind::kOptimus:
        return std::make_unique<OptimusAllocator>();
      case AllocKind::kDrf:
        return std::make_unique<DrfAllocator>();
      case AllocKind::kTetris:
        return std::make_unique<TetrisAllocator>();
      case AllocKind::kFifo:
        return std::make_unique<FifoAllocator>();
    }
    return nullptr;
  }

  static std::vector<SchedJob> Jobs(int n) {
    std::vector<SchedJob> jobs;
    for (int i = 0; i < n; ++i) {
      SchedJob job;
      job.job_id = i;
      job.worker_demand = Resources(5, 10, 0, 0.2);
      job.ps_demand = Resources(5, 10, 0, 0.2);
      job.max_ps = 12;
      job.max_workers = 12;
      job.remaining_epochs = 5.0 + 7.0 * i;
      const double a = 3.0 + i;
      job.speed = KeepSpeed([a](int p, int w) {
        return 1.0 / (a / w + 1.0 + 0.8 * w / p + 0.05 * w + 0.05 * p);
      });
      jobs.push_back(std::move(job));
    }
    return jobs;
  }
};

TEST_P(AllocatorSweep, RespectsCapacityAndCaps) {
  auto allocator = Make(GetParam());
  const std::vector<SchedJob> jobs = Jobs(6);
  const Resources capacity(200, 2000, 0, 100);
  const std::vector<Allocation> result = allocator->Allocate(jobs, capacity);
  ASSERT_EQ(result.size(), jobs.size());
  Resources used;
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_LE(result[i].num_ps, 12);
    EXPECT_LE(result[i].num_workers, 12);
    used += AllocationDemand(jobs[i], result[i]);
  }
  EXPECT_TRUE(capacity.Fits(used));
}

TEST_P(AllocatorSweep, Deterministic) {
  auto allocator = Make(GetParam());
  const std::vector<SchedJob> jobs = Jobs(5);
  const Resources capacity(150, 1500, 0, 100);
  const std::vector<Allocation> a = allocator->Allocate(jobs, capacity);
  const std::vector<Allocation> b = allocator->Allocate(jobs, capacity);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "job " << i;
  }
}

TEST_P(AllocatorSweep, EmptyJobListYieldsEmptyMap) {
  auto allocator = Make(GetParam());
  EXPECT_TRUE(allocator->Allocate({}, Resources(100, 100, 0, 100)).empty());
}

TEST_P(AllocatorSweep, ZeroCapacityYieldsNothingActive) {
  auto allocator = Make(GetParam());
  const std::vector<Allocation> result = allocator->Allocate(Jobs(3), Resources());
  ASSERT_EQ(result.size(), 3u);
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_FALSE(ActiveAllocation(result[i], CommMode::kParameterServer)) << "job " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AllocatorSweep,
                         ::testing::Values(AllocKind::kOptimus, AllocKind::kDrf,
                                           AllocKind::kTetris, AllocKind::kFifo),
                         [](const ::testing::TestParamInfo<AllocKind>& info) {
                           switch (info.param) {
                             case AllocKind::kOptimus:
                               return "Optimus";
                             case AllocKind::kDrf:
                               return "Drf";
                             case AllocKind::kTetris:
                               return "Tetris";
                             case AllocKind::kFifo:
                               return "Fifo";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace optimus
