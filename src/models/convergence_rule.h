// The §2.1 stopping rule, written once: training has converged once the
// relative per-epoch loss decrease has stayed below delta for `patience`
// consecutive epochs. Job::RecordEpochLoss applies it to observed epoch
// losses one at a time (ConvergenceStep); LossCurve::EpochsToConverge and
// ConvergenceModel::PredictTotalEpochs walk a curve with it
// (EpochsToConvergence).
//
// The walk starts from the loss at epoch 0, so its first comparison is
// epoch 1 against epoch 0. A job records its first loss after epoch 1, so
// its first comparison is epoch 2 against epoch 1. Fed a curve's losses at
// epochs 1, 2, ..., a job therefore converges at the walk's epoch, except
// when the curve's epoch-0 -> 1 drop is already below delta: the walk counts
// that epoch and the job cannot, so the job converges one epoch later
// (tests/cluster_test.cc pins both).

#ifndef SRC_MODELS_CONVERGENCE_RULE_H_
#define SRC_MODELS_CONVERGENCE_RULE_H_

#include <cstdint>

#include "src/common/logging.h"

namespace optimus {

// One epoch of the rule: the loss went from `prev` to `cur`. Extends or
// clears the below-delta `streak` and returns true once it reaches
// `patience`.
inline bool ConvergenceStep(double prev, double cur, double delta, int patience,
                            int* streak) {
  const double rel_drop = prev > 0.0 ? (prev - cur) / prev : 0.0;
  *streak = rel_drop < delta ? *streak + 1 : 0;
  return *streak >= patience;
}

// The first epoch E at which the rule fires on `loss_at_epoch(0..E)`, or
// `max_epochs` when it never does. `loss_at_epoch` takes an int64_t epoch.
template <typename LossAtEpoch>
int64_t EpochsToConvergence(const LossAtEpoch& loss_at_epoch, double delta,
                            int patience, int64_t max_epochs) {
  OPTIMUS_CHECK_GT(delta, 0.0);
  OPTIMUS_CHECK_GE(patience, 1);
  int streak = 0;
  double prev = loss_at_epoch(int64_t{0});
  for (int64_t e = 1; e <= max_epochs; ++e) {
    const double cur = loss_at_epoch(e);
    if (ConvergenceStep(prev, cur, delta, patience, &streak)) {
      return e;
    }
    prev = cur;
  }
  return max_epochs;
}

}  // namespace optimus

#endif  // SRC_MODELS_CONVERGENCE_RULE_H_
