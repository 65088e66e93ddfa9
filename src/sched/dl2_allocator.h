// DL2-style learned allocation: a linear policy over per-job features.
//
// DL2 (Peng et al., '21) replaces the hand-built marginal-gain rule with a
// policy learned offline from traces. This reproduction keeps the same
// skeleton as Optimus's greedy — repeatedly grant one worker or parameter
// server to the best candidate until nothing fits — but scores candidates
// with a linear function over a fixed feature vector instead of Eqn 9:
//
//   score(job, kind) = w · x(job, kind)
//
//   x0  bias (1.0)
//   x1  relative completion-time reduction  (t0 - t1) / (1 + t0)
//   x2  marginal speed gain                 f(next) - f(cur)
//   x3  packing cheapness                   1 / (eps + dominant share of the
//                                           added task's demand)
//   x4  SRTF urgency                        1 / (1 + Q)
//   x5  small-allocation bonus              1 / (1 + p + w)
//
// The weights are trained offline by tools/optimus_train_policy: it samples
// deterministic synthetic allocation states, computes Optimus's Eqn-9 gain
// as the regression target, and fits non-negative weights with the repo's
// NNLS solver (seeded, bit-reproducible). The defaults baked in below are
// the tool's output with its default flags; see docs/POLICIES.md.
//
// Inference is a pure function of the round inputs — no RNG, no global
// state — so the policy inherits the bitwise-determinism contract for any
// thread count or engine.

#ifndef SRC_SCHED_DL2_ALLOCATOR_H_
#define SRC_SCHED_DL2_ALLOCATOR_H_

#include <array>
#include <vector>

#include "src/sched/optimus_allocator.h"
#include "src/sched/scheduler.h"

namespace optimus {

inline constexpr size_t kDl2NumFeatures = 6;
using Dl2Weights = std::array<double, kDl2NumFeatures>;

// The committed weights: output of `optimus_train_policy` with default flags
// (--seed=42 --states=4000).
Dl2Weights DefaultDl2Weights();

// Feature vector for granting one more task of the given kind to a job
// currently at (p, w) with estimated speeds f0 (current) and f1 (after the
// grant). Shared between the allocator and the training tool so the two can
// never drift.
std::array<double, kDl2NumFeatures> Dl2Features(double remaining_epochs,
                                                double f0, double f1,
                                                const Resources& unit_demand,
                                                const Resources& capacity,
                                                int num_ps, int num_workers);

// Scores every candidate with DefaultDl2Weights().
class Dl2Allocator : public Allocator {
 public:
  // When `stats` is non-null, accumulates per-round counters there (pops =
  // candidates scored, grants = tasks granted).
  explicit Dl2Allocator(OptimusAllocRoundStats* stats = nullptr) : stats_(stats) {}

  using Allocator::Allocate;
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;

  const char* name() const override { return "dl2"; }

 private:
  OptimusAllocRoundStats* stats_;
};

}  // namespace optimus

#endif  // SRC_SCHED_DL2_ALLOCATOR_H_
