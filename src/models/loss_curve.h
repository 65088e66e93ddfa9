// Ground-truth training curves for synthetic jobs.
//
// A LossCurve evaluates the true (noise-free) training loss of a model at any
// epoch, draws noisy per-step loss observations (what a real framework would
// log), and answers ground-truth convergence queries. It supports an optional
// learning-rate-drop segment (paper §7 "Convergence estimation"): after the
// drop epoch, the loss continues from its current value along a second 1/x
// curve toward a lower floor.

#ifndef SRC_MODELS_LOSS_CURVE_H_
#define SRC_MODELS_LOSS_CURVE_H_

#include <cstdint>
#include <optional>

#include "src/common/rng.h"
#include "src/models/model_zoo.h"

namespace optimus {

struct LearningRateDrop {
  // Epoch at which the learning-rate change happens.
  double epoch = 0.0;
  // Post-drop curve parameters (same l = 1/(c0 e' + c1) + c2 family, with e'
  // measured from the drop point). c1 is recomputed internally to keep the
  // curve continuous, so only c0 and c2 matter here.
  double c0 = 0.0;
  double c2 = 0.0;
};

class LossCurve {
 public:
  LossCurve(LossCurveParams params, int64_t steps_per_epoch);
  LossCurve(LossCurveParams params, int64_t steps_per_epoch, LearningRateDrop drop);

  int64_t steps_per_epoch() const { return steps_per_epoch_; }

  // True (noise-free) training loss at a fractional epoch.
  double TrueLossAtEpoch(double epoch) const;
  double TrueLossAtStep(int64_t step) const;
  double InitialLoss() const { return TrueLossAtEpoch(0.0); }

  // Per-step loss observation with multiplicative log-normal noise.
  double SampleLossAtStep(int64_t step, Rng* rng) const;

  // Fig-1 style curves.
  double TrainAccuracyAtEpoch(double epoch) const;
  double ValidationLossAtEpoch(double epoch) const;
  double ValidationAccuracyAtEpoch(double epoch) const;

  // Ground-truth convergence epoch: the §2.1 rule (convergence_rule.h)
  // walked on the true curve. Capped at `max_epochs`.
  int64_t EpochsToConverge(double delta, int patience, int64_t max_epochs = 100000) const;

 private:
  LossCurveParams params_;
  int64_t steps_per_epoch_;
  std::optional<LearningRateDrop> drop_;
  // c1 of the post-drop segment, solved for continuity at the drop epoch.
  double drop_c1_ = 0.0;
};

}  // namespace optimus

#endif  // SRC_MODELS_LOSS_CURVE_H_
