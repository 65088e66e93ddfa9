#include <cmath>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/models/loss_curve.h"
#include "src/models/model_zoo.h"
#include "src/pserver/comm_model.h"

namespace optimus {
namespace {

JobSpec MakeSpec(int id, const std::string& model, TrainingMode mode) {
  JobSpec spec;
  spec.id = id;
  spec.model = &FindModel(model);
  spec.mode = mode;
  spec.convergence_delta = 0.02;
  spec.patience = 3;
  spec.worker_demand = Resources(2.5, 10, 0, 0.15);
  spec.ps_demand = Resources(2.5, 10, 0, 0.15);
  spec.dataset_scale = 0.002;
  spec.max_ps = 16;
  spec.max_workers = 16;
  return spec;
}

// Ground-truth pre-run measurements for a spec.
std::vector<SpeedSample> PreRun(const JobSpec& spec) {
  std::vector<SpeedSample> samples;
  for (auto [p, w] : {std::pair{1, 1}, {16, 16}, {8, 8}, {16, 4}, {4, 16}}) {
    StepTimeInputs in;
    in.model = spec.model;
    in.mode = spec.mode;
    in.num_ps = p;
    in.num_workers = w;
    samples.push_back({p, w, TrainingSpeed(in, CommConfig{})});
  }
  return samples;
}

// Feeds `epochs` of ground-truth loss observations to the controller.
void Observe(OptimusController* controller, const JobSpec& spec, int epochs,
             uint64_t seed) {
  const int64_t spe = spec.StepsPerEpoch();
  LossCurve curve(spec.model->loss, spe);
  Rng rng(seed);
  JobObservation obs;
  obs.job_id = spec.id;
  obs.steps_done = static_cast<double>(epochs * spe);
  for (int e = 0; e < epochs; ++e) {
    for (int i = 1; i <= 20; ++i) {
      const int64_t step = e * spe + i * spe / 20;
      obs.new_loss_points.push_back(
          {static_cast<double>(step), curve.SampleLossAtStep(step, &rng)});
    }
  }
  controller->ReportObservation(obs);
}

TEST(ControllerTest, RegisterScheduleLifecycle) {
  OptimusController controller;
  const JobSpec spec = MakeSpec(0, "ResNext-110", TrainingMode::kSync);
  controller.RegisterJob(spec, PreRun(spec));
  EXPECT_TRUE(controller.HasJob(0));
  EXPECT_EQ(controller.num_jobs(), 1u);

  ScheduleDecision decision = controller.Schedule(BuildTestbed());
  ASSERT_TRUE(decision.allocations.count(0));
  EXPECT_TRUE(ActiveAllocation(decision.allocations[0], spec.comm));
  EXPECT_TRUE(decision.placements.count(0));
  EXPECT_TRUE(ActiveAllocation(controller.CurrentAllocation(0), spec.comm));

  controller.CompleteJob(0);
  EXPECT_FALSE(controller.HasJob(0));
  EXPECT_TRUE(controller.Schedule(BuildTestbed()).allocations.empty());
}

TEST(ControllerTest, SpeedEstimateFromPreRun) {
  OptimusController controller;
  const JobSpec spec = MakeSpec(0, "ResNet-50", TrainingMode::kSync);
  controller.RegisterJob(spec, PreRun(spec));
  StepTimeInputs in;
  in.model = spec.model;
  in.mode = spec.mode;
  in.num_ps = 6;
  in.num_workers = 6;
  const double truth = TrainingSpeed(in, CommConfig{});
  EXPECT_NEAR(controller.EstimateSpeed(0, 6, 6), truth, 0.2 * truth);
}

TEST(ControllerTest, AllReduceJobGetsNoParameterServers) {
  OptimusController controller;
  JobSpec spec = MakeSpec(0, "ResNext-110", TrainingMode::kSync);
  spec.comm = CommMode::kAllReduce;
  // All-reduce pre-runs vary only the worker count; their samples sit on the
  // model's p = 1 row.
  std::vector<SpeedSample> samples;
  for (const int w : {1, 2, 4, 8, 16}) {
    StepTimeInputs in;
    in.model = spec.model;
    in.mode = spec.mode;
    in.comm = spec.comm;
    in.num_ps = 0;
    in.num_workers = w;
    samples.push_back({1, w, TrainingSpeed(in, CommConfig{})});
  }
  controller.RegisterJob(spec, samples);

  ScheduleDecision decision = controller.Schedule(BuildTestbed());
  ASSERT_TRUE(decision.allocations.count(0));
  const Allocation alloc = decision.allocations[0];
  EXPECT_EQ(alloc.num_ps, 0);
  EXPECT_GT(alloc.num_workers, 1);
  ASSERT_TRUE(decision.placements.count(0));
  EXPECT_EQ(decision.placements[0].TotalPs(), 0);
  EXPECT_EQ(decision.placements[0].TotalWorkers(), alloc.num_workers);
}

TEST(ControllerTest, RemainingEpochsSharpensWithObservations) {
  OptimusController controller;
  const JobSpec spec = MakeSpec(0, "Seq2Seq", TrainingMode::kSync);
  controller.RegisterJob(spec, PreRun(spec));
  const double prior = controller.EstimateRemainingEpochs(0);
  EXPECT_DOUBLE_EQ(prior, 30.0);  // default prior before any loss data

  Observe(&controller, spec, 20, 7);
  const double fitted = controller.EstimateRemainingEpochs(0);
  EXPECT_NE(fitted, prior);
  EXPECT_GT(fitted, 0.0);

  // Ground truth for comparison.
  LossCurve curve(spec.model->loss, spec.StepsPerEpoch());
  const double truth = static_cast<double>(
      curve.EpochsToConverge(spec.convergence_delta, spec.patience)) - 20.0;
  EXPECT_NEAR(fitted, truth, std::max(5.0, 0.4 * truth));
}

TEST(ControllerTest, LearningRateChangeResetsConvergence) {
  OptimusController controller;
  const JobSpec spec = MakeSpec(0, "ResNext-110", TrainingMode::kSync);
  controller.RegisterJob(spec, PreRun(spec));
  Observe(&controller, spec, 15, 9);
  EXPECT_NE(controller.EstimateRemainingEpochs(0), 30.0);
  controller.NotifyLearningRateChange(0);
  EXPECT_DOUBLE_EQ(controller.EstimateRemainingEpochs(0), 30.0);  // back to prior
}

TEST(ControllerTest, MultipleJobsShareCluster) {
  OptimusController controller;
  std::vector<JobSpec> specs = {MakeSpec(0, "ResNet-50", TrainingMode::kSync),
                                MakeSpec(1, "CNN-rand", TrainingMode::kAsync),
                                MakeSpec(2, "DSSM", TrainingMode::kSync)};
  for (const JobSpec& spec : specs) {
    controller.RegisterJob(spec, PreRun(spec));
  }
  ScheduleDecision decision = controller.Schedule(BuildTestbed());
  // Every job gets resources; total tasks fit in the 60-slot testbed.
  int total_tasks = 0;
  for (const auto& [id, alloc] : decision.allocations) {
    EXPECT_TRUE(ActiveAllocation(alloc, specs[static_cast<size_t>(id)].comm));
    total_tasks += alloc.num_ps + alloc.num_workers;
  }
  EXPECT_EQ(decision.allocations.size(), 3u);
  EXPECT_LE(total_tasks, 60);
}

TEST(ControllerTest, CheckpointBudgetFreezesAllocation) {
  ControllerOptions options;
  options.checkpoint.max_scalings_per_job = 0;  // unlimited
  options.checkpoint.max_scalings_per_job = 1;
  OptimusController controller(options);
  const JobSpec spec = MakeSpec(0, "ResNext-110", TrainingMode::kSync);
  controller.RegisterJob(spec, PreRun(spec));

  controller.Schedule(BuildTestbed());
  const Allocation first = controller.CurrentAllocation(0);
  ASSERT_TRUE(ActiveAllocation(first, spec.comm));

  // Force estimate changes that would normally trigger rescaling.
  Observe(&controller, spec, 10, 11);
  controller.Schedule(BuildTestbed());
  Observe(&controller, spec, 10, 13);
  const Allocation second = controller.CurrentAllocation(0);

  // After the (at most one) allowed rescale, further rounds keep it fixed.
  controller.Schedule(BuildTestbed());
  controller.Schedule(BuildTestbed());
  EXPECT_TRUE(controller.CurrentAllocation(0) == second ||
              controller.CurrentAllocation(0) == first);
}

TEST(ControllerTest, SaveRestoreRoundTrip) {
  OptimusController controller;
  std::vector<JobSpec> specs = {MakeSpec(0, "Seq2Seq", TrainingMode::kSync),
                                MakeSpec(1, "KAGGLE", TrainingMode::kAsync)};
  specs[0].lr_drop = LearningRateDrop{.epoch = 25.0, .c0 = 0.8, .c2 = 0.03};
  for (const JobSpec& spec : specs) {
    controller.RegisterJob(spec, PreRun(spec));
  }
  Observe(&controller, specs[0], 12, 17);
  Observe(&controller, specs[1], 6, 19);
  controller.Schedule(BuildTestbed());

  const std::string snapshot = controller.SaveState();
  auto restored = OptimusController::RestoreState(snapshot);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_jobs(), 2u);

  // Estimates match.
  for (int id : {0, 1}) {
    EXPECT_NEAR(restored->EstimateRemainingEpochs(id),
                controller.EstimateRemainingEpochs(id), 1e-6);
    EXPECT_NEAR(restored->EstimateSpeed(id, 4, 4), controller.EstimateSpeed(id, 4, 4),
                1e-9);
    EXPECT_TRUE(restored->CurrentAllocation(id) == controller.CurrentAllocation(id));
  }

  // Subsequent decisions are identical (fault-tolerant restart, §5.5).
  ScheduleDecision original = controller.Schedule(BuildTestbed());
  ScheduleDecision recovered = restored->Schedule(BuildTestbed());
  ASSERT_EQ(original.allocations.size(), recovered.allocations.size());
  for (const auto& [id, alloc] : original.allocations) {
    EXPECT_TRUE(alloc == recovered.allocations.at(id)) << "job " << id;
  }
}

TEST(ControllerTest, RestoreRejectsMalformedSnapshots) {
  EXPECT_EQ(OptimusController::RestoreState(""), nullptr);
  EXPECT_EQ(OptimusController::RestoreState("not-a-snapshot v9"), nullptr);
  EXPECT_EQ(OptimusController::RestoreState("optimus-controller-state v1\ngarbage"),
            nullptr);
}

TEST(ControllerTest, SnapshotPreservesLrDropSpec) {
  OptimusController controller;
  JobSpec spec = MakeSpec(0, "ResNet-50", TrainingMode::kSync);
  spec.lr_drop = LearningRateDrop{.epoch = 30.0, .c0 = 1.5, .c2 = 0.2};
  controller.RegisterJob(spec, PreRun(spec));
  auto restored = OptimusController::RestoreState(controller.SaveState());
  ASSERT_NE(restored, nullptr);
  // Round-trip again: the second snapshot must equal the first.
  EXPECT_EQ(restored->SaveState(), controller.SaveState());
}

}  // namespace
}  // namespace optimus
