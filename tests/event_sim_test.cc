#include <cmath>

#include <gtest/gtest.h>

#include "src/models/model_zoo.h"
#include "src/pserver/comm_model.h"
#include "src/pserver/event_sim.h"

namespace optimus {
namespace {

// A tiny synthetic model with round numbers so step phases are
// hand-computable: S = 100 MB, no batch floor, no overheads.
ModelSpec TinyModel() {
  ModelSpec spec = FindModel("ResNet-50");
  spec.name = "tiny";
  spec.params_millions = 25.0;  // 100 MB at 4 B/param
  spec.compute.fwd_time_per_example_s = 0.01;
  spec.compute.min_effective_batch = 1.0;
  spec.compute.back_time_s = 1.0;
  spec.compute.update_time_full_s = 0.0;
  spec.compute.overhead_per_worker_s = 0.0;
  spec.compute.overhead_per_ps_s = 0.0;
  spec.default_sync_batch = 100;
  spec.default_async_minibatch = 100;
  return spec;
}

StepTimeInputs Inputs(const ModelSpec* model, TrainingMode mode, int p, int w) {
  StepTimeInputs in;
  in.model = model;
  in.mode = mode;
  in.num_ps = p;
  in.num_workers = w;
  return in;
}

constexpr double kB = 50e6;  // default container bandwidth

TEST(EventSimTest, SingleWorkerSinglePsHandComputed) {
  // compute = 1*0.01*100 + 1 = 2 s; push 100 MB at 50 MB/s = 2 s; pull 2 s.
  const ModelSpec model = TinyModel();
  StepTimeInputs in = Inputs(&model, TrainingMode::kSync, 1, 1);
  EventSimResult r = SimulateStep(in, CommConfig{});
  EXPECT_NEAR(r.step_time_s, 2.0 + 2.0 + 2.0, 1e-6);
  EXPECT_NEAR(r.transfer_time_s, 4.0, 1e-6);
}

TEST(EventSimTest, ColocatedPairHasNoNetworkTime) {
  const ModelSpec model = TinyModel();
  const JobPlacement placement = {.used_servers = {0}, .used_workers = {1}, .used_ps = {1}};
  StepTimeInputs in = Inputs(&model, TrainingMode::kSync, 1, 1);
  in.placement = &placement;
  EventSimResult r = SimulateStep(in, CommConfig{});
  // Local transfers at 12.5 GB/s: 100 MB in 8 ms each way.
  EXPECT_NEAR(r.step_time_s, 2.0, 0.05);
}

TEST(EventSimTest, TwoWorkersSharePsNic) {
  // Two workers push 50 MB shards... with p=1 each worker pushes the full
  // 100 MB to one PS; the PS NIC (50 MB/s) is shared, so the push phase takes
  // 4 s instead of 2 s. Same for the pull phase.
  const ModelSpec model = TinyModel();
  StepTimeInputs in = Inputs(&model, TrainingMode::kSync, 1, 2);
  EventSimResult r = SimulateStep(in, CommConfig{});
  // compute = 0.5 s (m = 50) + 1 s = 1.5 s; push 2*100 MB through one 50 MB/s
  // NIC = 4 s; pull likewise 4 s.
  EXPECT_NEAR(r.step_time_s, 1.5 + 4.0 + 4.0, 1e-6);
}

TEST(EventSimTest, MorePsParallelizesTransfer) {
  const ModelSpec model = TinyModel();
  StepTimeInputs one = Inputs(&model, TrainingMode::kSync, 1, 4);
  StepTimeInputs four = Inputs(&model, TrainingMode::kSync, 4, 4);
  const double t1 = SimulateStep(one, CommConfig{}).step_time_s;
  const double t4 = SimulateStep(four, CommConfig{}).step_time_s;
  EXPECT_LT(t4, t1);
}

TEST(EventSimTest, UpdateTimeAddsToStep) {
  ModelSpec model = TinyModel();
  StepTimeInputs in = Inputs(&model, TrainingMode::kSync, 1, 1);
  const double base = SimulateStep(in, CommConfig{}).step_time_s;
  model.compute.update_time_full_s = 1.5;
  const double with_update = SimulateStep(in, CommConfig{}).step_time_s;
  EXPECT_NEAR(with_update - base, 1.5, 1e-6);
}

TEST(EventSimTest, StragglerDelaysSyncBarrier) {
  const ModelSpec model = TinyModel();
  StepTimeInputs in = Inputs(&model, TrainingMode::kSync, 2, 4);
  const double healthy = SimulateStep(in, CommConfig{}).step_time_s;
  in.slowest_worker_factor = 0.5;
  const double straggling = SimulateStep(in, CommConfig{}).step_time_s;
  // The slowest worker's compute doubles; the barrier waits for it.
  EXPECT_GT(straggling, healthy);
}

TEST(EventSimTest, OverheadAddedOncePerStep) {
  ModelSpec model = TinyModel();
  StepTimeInputs in = Inputs(&model, TrainingMode::kSync, 2, 2);
  const double base = SimulateStep(in, CommConfig{}).step_time_s;
  model.compute.overhead_per_worker_s = 0.1;
  model.compute.overhead_per_ps_s = 0.2;
  const double with_overhead = SimulateStep(in, CommConfig{}).step_time_s;
  EXPECT_NEAR(with_overhead - base, 0.1 * 2 + 0.2 * 2, 1e-6);
}

TEST(EventSimTest, AsyncAggregatesWorkerThroughput) {
  const ModelSpec model = TinyModel();
  StepTimeInputs in = Inputs(&model, TrainingMode::kAsync, 4, 1);
  const double s1 = SimulateStep(in, CommConfig{}).speed;
  in.num_workers = 4;
  const double s4 = SimulateStep(in, CommConfig{}).speed;
  EXPECT_GT(s4, s1);
  EXPECT_LT(s4, 4.0 * s1 + 1e-9);  // sublinear: shared PS NICs
}

TEST(EventSimTest, HotShardImbalanceSlowsStep) {
  const ModelSpec& model = FindModel("ResNet-50");
  StepTimeInputs balanced = Inputs(&model, TrainingMode::kSync, 4, 4);
  StepTimeInputs skewed = Inputs(&model, TrainingMode::kSync, 4, 4);
  skewed.load = BalancedLoadMetrics(model.TotalParams(), 4, model.num_param_blocks);
  skewed.load.max_param_fraction = 0.6;
  skewed.load_valid = true;
  EXPECT_GT(SimulateStep(skewed, CommConfig{}).step_time_s,
            SimulateStep(balanced, CommConfig{}).step_time_s);
}

TEST(EventSimTest, AgreesWithClosedFormAcrossConfigs) {
  // The validation property the module exists for: the closed-form Eqn-2
  // model and the message-level simulation agree within a modest tolerance
  // across (p, w) for both training modes.
  const ModelSpec& model = FindModel("ResNet-50");
  const CommConfig config;
  for (TrainingMode mode : {TrainingMode::kSync, TrainingMode::kAsync}) {
    for (int p : {2, 6, 12}) {
      for (int w : {2, 6, 12}) {
        SCOPED_TRACE(std::string(TrainingModeName(mode)) + " p=" + std::to_string(p) +
                     " w=" + std::to_string(w));
        StepTimeInputs in = Inputs(&model, mode, p, w);
        const double closed = TrainingSpeed(in, config);
        const double simulated = SimulateStep(in, config).speed;
        EXPECT_NEAR(simulated, closed, 0.45 * closed);
      }
    }
  }
}

TEST(EventSimTest, PackedPlacementFasterThanSpread) {
  const ModelSpec& model = FindModel("ResNet-50");
  const JobPlacement packed_placement = {
      .used_servers = {0, 1}, .used_workers = {1, 1}, .used_ps = {1, 1}};
  StepTimeInputs packed = Inputs(&model, TrainingMode::kSync, 2, 2);
  packed.placement = &packed_placement;
  const JobPlacement spread_placement = {
      .used_servers = {0, 1, 2, 3}, .used_workers = {1, 1, 0, 0}, .used_ps = {0, 0, 1, 1}};
  StepTimeInputs spread = Inputs(&model, TrainingMode::kSync, 2, 2);
  spread.placement = &spread_placement;
  EXPECT_LT(SimulateStep(packed, CommConfig{}).step_time_s,
            SimulateStep(spread, CommConfig{}).step_time_s);
}

TEST(EventSimTest, DeterministicAcrossRuns) {
  const ModelSpec& model = FindModel("Seq2Seq");
  StepTimeInputs in = Inputs(&model, TrainingMode::kAsync, 3, 5);
  const EventSimResult a = SimulateStep(in, CommConfig{});
  const EventSimResult b = SimulateStep(in, CommConfig{});
  EXPECT_DOUBLE_EQ(a.step_time_s, b.step_time_s);
  EXPECT_DOUBLE_EQ(a.speed, b.speed);
}

}  // namespace
}  // namespace optimus
