#include "src/cluster/job.h"

#include <algorithm>
#include <cmath>

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

int64_t JobSpec::StepsPerEpoch() const {
  OPTIMUS_CHECK(model != nullptr);
  OPTIMUS_CHECK_GT(dataset_scale, 0.0);
  const double examples = static_cast<double>(model->dataset_examples) * dataset_scale;
  // For async training each step consumes one per-worker mini-batch; we use
  // the global batch for sync and the per-worker batch for async, matching
  // how frameworks count steps.
  const int batch = mode == TrainingMode::kSync ? GlobalBatch() : AsyncMinibatch();
  return std::max<int64_t>(1, static_cast<int64_t>(examples / batch));
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

Job::Job(JobSpec spec) : spec_(spec) {
  OPTIMUS_CHECK(spec_.model != nullptr);
  OPTIMUS_CHECK_GT(spec_.convergence_delta, 0.0);
  OPTIMUS_CHECK_GE(spec_.patience, 1);
  OPTIMUS_CHECK_GE(spec_.max_workers, 1);
  OPTIMUS_CHECK_GE(spec_.max_ps, 1);
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
