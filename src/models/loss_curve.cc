#include "src/models/loss_curve.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/models/convergence_rule.h"

namespace optimus {

LossCurve::LossCurve(LossCurveParams params, int64_t steps_per_epoch)
    : params_(params), steps_per_epoch_(steps_per_epoch) {
  OPTIMUS_CHECK_GT(steps_per_epoch_, 0);
  OPTIMUS_CHECK_GT(params_.c1, 0.0);
  OPTIMUS_CHECK_GE(params_.c0, 0.0);
  OPTIMUS_CHECK_GE(params_.c2, 0.0);
}

LossCurve::LossCurve(LossCurveParams params, int64_t steps_per_epoch,
                     LearningRateDrop drop)
    : LossCurve(params, steps_per_epoch) {
  OPTIMUS_CHECK_GT(drop.epoch, 0.0);
  OPTIMUS_CHECK_GT(drop.c0, 0.0);
  // Solve 1/(drop.c0 * 0 + c1) + drop.c2 == loss at the drop epoch, so the
  // piecewise curve is continuous.
  const double at_drop = TrueLossAtEpoch(drop.epoch);
  OPTIMUS_CHECK_GT(at_drop, drop.c2);
  drop_c1_ = 1.0 / (at_drop - drop.c2);
  drop_ = drop;
}

double LossCurve::TrueLossAtEpoch(double epoch) const {
  epoch = std::max(epoch, 0.0);
  if (drop_.has_value() && epoch > drop_->epoch) {
    const double e2 = epoch - drop_->epoch;
    return 1.0 / (drop_->c0 * e2 + drop_c1_) + drop_->c2;
  }
  return 1.0 / (params_.c0 * epoch + params_.c1) + params_.c2;
}

double LossCurve::TrueLossAtStep(int64_t step) const {
  return TrueLossAtEpoch(static_cast<double>(step) /
                         static_cast<double>(steps_per_epoch_));
}

double LossCurve::SampleLossAtStep(int64_t step, Rng* rng) const {
  OPTIMUS_CHECK(rng != nullptr);
  return TrueLossAtStep(step) * rng->LogNormalFactor(params_.noise_sd);
}

double LossCurve::TrainAccuracyAtEpoch(double epoch) const {
  // Accuracy rises as loss falls: map the normalized loss decrease onto
  // [0, max_accuracy]. At epoch 0 the accuracy is near chance (taken as a
  // small fraction of max), approaching max_accuracy as loss approaches its
  // floor c2.
  const double l0 = InitialLoss();
  const double floor = params_.c2;
  const double span = std::max(l0 - floor, 1e-9);
  const double progress = std::clamp((l0 - TrueLossAtEpoch(epoch)) / span, 0.0, 1.0);
  const double chance = 0.1 * params_.max_accuracy;
  return chance + (params_.max_accuracy - chance) * progress;
}

double LossCurve::ValidationLossAtEpoch(double epoch) const {
  // Validation loss tracks training loss with a gap that widens slightly as
  // training progresses (mild but bounded generalization gap; production
  // models are assumed not to overfit, §2.1).
  const double l = TrueLossAtEpoch(epoch);
  const double progress =
      std::clamp((InitialLoss() - l) / std::max(InitialLoss() - params_.c2, 1e-9), 0.0,
                 1.0);
  return l * (1.0 + params_.val_gap * (0.5 + 0.5 * progress));
}

double LossCurve::ValidationAccuracyAtEpoch(double epoch) const {
  return TrainAccuracyAtEpoch(epoch) * (1.0 - 0.5 * params_.val_gap);
}

int64_t LossCurve::EpochsToConverge(double delta, int patience,
                                    int64_t max_epochs) const {
  return EpochsToConvergence(
      [this](int64_t e) { return TrueLossAtEpoch(static_cast<double>(e)); }, delta,
      patience, max_epochs);
}

}  // namespace optimus
