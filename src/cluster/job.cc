#include "src/cluster/job.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/cluster/data_serving.h"
#include "src/common/logging.h"
#include "src/models/convergence_rule.h"

namespace optimus {

int JobSpec::GlobalBatch() const {
  OPTIMUS_CHECK(model != nullptr);
  return global_batch > 0 ? global_batch : model->default_sync_batch;
}

int JobSpec::AsyncMinibatch() const {
  OPTIMUS_CHECK(model != nullptr);
  return async_minibatch > 0 ? async_minibatch : model->default_async_minibatch;
}

double JobSpec::ExactStepsPerEpoch() const {
  OPTIMUS_CHECK(model != nullptr);
  OPTIMUS_CHECK_GT(dataset_scale, 0.0);
  const double examples = static_cast<double>(model->dataset_examples) * dataset_scale;
  // For async training each step consumes one per-worker mini-batch; we use
  // the global batch for sync and the per-worker batch for async, matching
  // how frameworks count steps.
  const int batch = mode == TrainingMode::kSync ? GlobalBatch() : AsyncMinibatch();
  return examples / batch;
}

int64_t JobSpec::StepsPerEpoch() const {
  const double steps = ExactStepsPerEpoch();
  OPTIMUS_CHECK_LE(steps, static_cast<double>(kMaxStepsPerEpoch)) << "job " << id;
  return std::max<int64_t>(1, static_cast<int64_t>(steps));
}

int JobSpec::BatchMin() const {
  OPTIMUS_CHECK(model != nullptr);
  return batch_min > 0 ? batch_min : model->min_global_batch;
}

int JobSpec::BatchMax() const {
  OPTIMUS_CHECK(model != nullptr);
  return batch_max > 0 ? batch_max : model->max_global_batch;
}

double JobSpec::CpuSensitivity() const {
  OPTIMUS_CHECK(model != nullptr);
  return cpu_sensitivity >= 0.0 ? cpu_sensitivity : model->cpu_sensitivity;
}

double JobSpec::MemSensitivity() const {
  OPTIMUS_CHECK(model != nullptr);
  return mem_sensitivity >= 0.0 ? mem_sensitivity : model->mem_sensitivity;
}

double JobSpec::GradNoiseScale() const {
  OPTIMUS_CHECK(model != nullptr);
  return model->grad_noise_scale;
}

namespace {

bool FiniteNonNegative(const Resources& demand) {
  for (size_t i = 0; i < kNumResourceTypes; ++i) {
    const double v = demand.Get(static_cast<ResourceType>(i));
    if (!(std::isfinite(v) && v >= 0.0)) {
      return false;
    }
  }
  return true;
}

bool IsSensitivity(double s) { return s < 0.0 || (std::isfinite(s) && s <= 1.0); }

// The cap messages below spell the caps out, so a valid spec builds no string.
static_assert(kMaxJobGridCells == 1048576 && kMaxStepsPerEpoch == 9007199254740992 &&
              kMaxDatasetBytes == 140737488355328 && kMaxJobs == 16777216);

}  // namespace

bool JobSpec::Validate(std::vector<std::string>* errors) const {
  bool valid = true;
  auto check = [&](bool ok, const char* message) {
    if (!ok) {
      valid = false;
      if (errors != nullptr) {
        errors->emplace_back(message);
      }
    }
  };
  // Below INT_MAX, so the next free id (the largest plus one) is an int too.
  check(id >= 0 && id < std::numeric_limits<int>::max(), "id: must be in [0, 2147483646]");
  check(model != nullptr, "model: must name a model of the zoo");
  check(comm == CommMode::kParameterServer || mode == TrainingMode::kSync,
        "comm: allreduce jobs are always synchronous (mode must be sync)");
  check(std::isfinite(arrival_time_s) && arrival_time_s >= 0.0,
        "arrival_s: must be finite and >= 0");
  check(convergence_delta > 0.0 && convergence_delta <= 1.0,
        "convergence_delta: must be in (0, 1]");
  check(patience >= 1, "patience: must be >= 1");
  check(global_batch >= 0, "global_batch: must be >= 0 (0 = model default)");
  check(async_minibatch >= 0, "async_minibatch: must be >= 0 (0 = model default)");
  check(FiniteNonNegative(worker_demand),
        "worker_demand: every resource must be finite and >= 0");
  check(FiniteNonNegative(ps_demand), "ps_demand: every resource must be finite and >= 0");
  const bool scale_ok = std::isfinite(dataset_scale) && dataset_scale > 0.0;
  check(scale_ok, "dataset_scale: must be finite and > 0");
  if (scale_ok && model != nullptr) {
    check(ExactStepsPerEpoch() <= static_cast<double>(kMaxStepsPerEpoch),
          "dataset_scale: steps per epoch must be <= 9007199254740992");
    check(ExactDatasetBytes(*model, dataset_scale) <= static_cast<double>(kMaxDatasetBytes),
          "dataset_scale: dataset bytes must be <= 140737488355328");
  }
  check(max_ps >= 1, "max_ps: must be >= 1");
  check(max_workers >= 1, "max_workers: must be >= 1");
  check(JobGridCells(max_ps, max_workers) <= kMaxJobGridCells,
        "max_workers: max(max_ps, 1) * max_workers must be <= 1048576");
  if (lr_drop.has_value()) {
    // The post-drop curve must start below the loss it continues from.
    const LearningRateDrop& drop = *lr_drop;
    const bool positive = std::isfinite(drop.epoch) && drop.epoch > 0.0 &&
                          std::isfinite(drop.c0) && drop.c0 > 0.0;
    check(positive && std::isfinite(drop.c2) && drop.c2 >= 0.0 &&
              (model == nullptr ||
               drop.c2 < LossCurve(model->loss, 1).TrueLossAtEpoch(drop.epoch)),
          "lr_drop: need epoch > 0, c0 > 0 and 0 <= c2 < the model's loss at epoch");
  }
  check(batch_min >= 0, "batch_min: must be >= 0");
  check(batch_max >= 0, "batch_max: must be >= 0");
  check(batch_min == 0 || batch_max == 0 || batch_min <= batch_max,
        "batch_min: must be <= batch_max when both are set");
  check(IsSensitivity(cpu_sensitivity),
        "cpu_sensitivity: must be in [0, 1] (or negative for model default)");
  check(IsSensitivity(mem_sensitivity),
        "mem_sensitivity: must be in [0, 1] (or negative for model default)");
  return valid;
}

bool ValidateJobCount(int64_t count, std::vector<std::string>* errors) {
  const bool valid = count >= 1 && count <= kMaxJobs;
  if (!valid && errors != nullptr) {
    errors->emplace_back(count < 1 ? "jobs: must be >= 1" : "jobs: must be <= 16777216");
  }
  return valid;
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kRunning:
      return "running";
    case JobState::kPaused:
      return "paused";
    case JobState::kCompleted:
      return "completed";
  }
  return "unknown";
}

double Job::EpochsDone() const {
  return steps_done_ / static_cast<double>(spec_.StepsPerEpoch());
}

void Job::AdvanceSteps(double steps) {
  OPTIMUS_CHECK_GE(steps, 0.0);
  steps_done_ += steps;
}

bool Job::RecordEpochLoss(double loss) {
  if (converged_) {
    return false;
  }
  if (!epoch_losses_.empty()) {
    converged_ = ConvergenceStep(epoch_losses_.back(), loss, spec_.convergence_delta,
                                 spec_.patience, &below_threshold_streak_);
  }
  epoch_losses_.push_back(loss);
  ++epochs_recorded_;
  return converged_;
}

bool Job::SetAllocation(int num_ps, int num_workers, JobPlacement placement) {
  OPTIMUS_CHECK_GE(num_ps, 0);
  OPTIMUS_CHECK_GE(num_workers, 0);
  const bool changed = num_ps != num_ps_ || num_workers != num_workers_;
  const bool scaling_event = changed && ever_allocated_ && num_ps > 0 && num_workers > 0;
  num_ps_ = num_ps;
  num_workers_ = num_workers;
  placement_ = std::move(placement);
  if (num_ps > 0 && num_workers > 0) {
    ever_allocated_ = true;
  }
  if (scaling_event) {
    ++num_scalings_;
  }
  return scaling_event;
}

void Job::TakeCheckpoint() {
  checkpoint_steps_ = steps_done_;
  checkpoint_epochs_recorded_ = epochs_recorded_;
  checkpoint_streak_ = below_threshold_streak_;
}

double Job::RollbackToCheckpoint() {
  OPTIMUS_CHECK(!converged_) << "job " << id() << " rolled back after converging";
  const double lost = std::max(0.0, steps_done_ - checkpoint_steps_);
  steps_done_ = checkpoint_steps_;
  epochs_recorded_ = checkpoint_epochs_recorded_;
  epoch_losses_.resize(static_cast<size_t>(checkpoint_epochs_recorded_));
  below_threshold_streak_ = checkpoint_streak_;
  return lost;
}

void Job::AddStall(double seconds) {
  OPTIMUS_CHECK_GE(seconds, 0.0);
  stall_remaining_s_ += seconds;
}

double Job::ConsumeStall(double dt) {
  OPTIMUS_CHECK_GE(dt, 0.0);
  const double consumed = std::min(dt, stall_remaining_s_);
  stall_remaining_s_ -= consumed;
  total_stall_s_ += consumed;
  return consumed;
}

void Job::MarkCompleted(double now_s) {
  OPTIMUS_CHECK(state_ != JobState::kCompleted);
  state_ = JobState::kCompleted;
  completion_time_s_ = now_s;
}

double Job::Jct() const {
  OPTIMUS_CHECK_GE(completion_time_s_, 0.0);
  return completion_time_s_ - spec_.arrival_time_s;
}

}  // namespace optimus
