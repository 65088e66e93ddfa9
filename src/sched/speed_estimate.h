// A job's estimated speed function f(p, w) as a value.
//
// Optimus's speed model is a closed form in a handful of fitted coefficients
// (§3.2, Eqns 3-4), so the scheduler's view of it is plain data: a kind tag
// and the few numbers that kind needs. Evaluating one is an inline switch, a
// SchedJob holding one is trivially copyable, and two estimates that compare
// equal are pointwise identical, which is what lets a scheduling round share
// one memoized surface between them (src/sched/speed_surface.h).
//
// The kinds:
//   kZero         the model is not fitted yet: f = 0.
//   kFitted       Eqn 3/4 from fitted θ: SpeedModel::Estimate(p, w) / spe,
//                 bit for bit; with pin_ps (all-reduce jobs, whose samples lie
//                 on the p = 1 row) Estimate(1, w) / spe.
//   kNaiveLinear  perfect linear scaling in workers from the measured (1, 1)
//                 speed, parameter servers free: f(1, 1) * w / spe.
//   kOracle       the ground-truth step-time model of the job's spec at
//                 (p, w), its slope tilted by an injected error.
//   kCustom       a function pointer over a context the caller keeps alive
//                 (tests, benches, and the goodput composite).
// The closed-form kinds (zero, fitted, naive-linear) cost a few flops;
// kOracle and kCustom are `memoized()`: they are worth a surface.

#ifndef SRC_SCHED_SPEED_ESTIMATE_H_
#define SRC_SCHED_SPEED_ESTIMATE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/cluster/job.h"
#include "src/common/logging.h"
#include "src/models/model_zoo.h"
#include "src/perfmodel/speed_model.h"
#include "src/pserver/comm_model.h"

namespace optimus {

// The spec-only step-time view of a job: what the comm model reads besides
// (p, w), at the configured batch, with balanced PS load, no placement,
// healthy workers and the flat network.
struct StepProfile {
  const ModelSpec* model = nullptr;
  TrainingMode mode = TrainingMode::kSync;
  CommMode comm = CommMode::kParameterServer;
  int global_batch = 0;
  int async_minibatch = 0;

  static StepProfile Of(const JobSpec& spec);
  StepTimeInputs Inputs(int num_ps, int num_workers) const;
  bool operator==(const StepProfile&) const = default;
};

class SpeedEstimate {
 public:
  enum class Kind : uint8_t { kZero, kFitted, kNaiveLinear, kOracle, kCustom };
  using CustomFn = double (*)(const void* ctx, int num_ps, int num_workers);

  // kZero.
  SpeedEstimate() = default;

  // kFitted from `model`'s current θ, or kZero while it is not fitted.
  static SpeedEstimate Fitted(const SpeedModel& model, double steps_per_epoch, bool pin_ps);
  // kNaiveLinear from `model`'s (1, 1) estimate, or kZero while it is not
  // fitted.
  static SpeedEstimate NaiveLinear(const SpeedModel& model, double steps_per_epoch);
  // kOracle: TrainingSpeed(profile at (p, w), comm) / steps_per_epoch, times
  // 1 + error * tilt where tilt = 2 (p + w) / span - 1 runs from -1 at (1, 1)
  // to +1 at the caps (span = max_ps + max_workers). error 0 is exact.
  static SpeedEstimate Oracle(const StepProfile& profile, const CommConfig& comm,
                              double steps_per_epoch, double error, double span);
  // kCustom: fn(ctx, p, w). `ctx` is not owned and must outlive every copy.
  static SpeedEstimate Custom(CustomFn fn, const void* ctx);
  // kCustom over a callable the caller keeps alive.
  template <typename F>
  static SpeedEstimate Of(const F* fn) {
    return Custom(
        [](const void* ctx, int p, int w) {
          return static_cast<double>((*static_cast<const F*>(ctx))(p, w));
        },
        fn);
  }

  // Lets batch-adaptive policies vary the batch: BatchSpeed then scales f by
  // the analytic step-time ratio of `profile` under `comm`.
  SpeedEstimate WithBatchScaling(const StepProfile& profile, const CommConfig& comm) const;

  Kind kind() const { return kind_; }
  // Whether evaluating this kind costs enough to memoize (kOracle, kCustom).
  bool memoized() const { return kind_ == Kind::kOracle || kind_ == Kind::kCustom; }
  bool batch_scalable() const { return batch_scaling_; }

  // f(p, w) in epochs/s. kFitted requires p >= 1 (unless p is pinned) and
  // w >= 1; the other kinds take any (p, w) their function accepts.
  double operator()(int num_ps, int num_workers) const {
    switch (kind_) {
      case Kind::kZero:
        return 0.0;
      case Kind::kFitted: {
        const int p = pin_ps_ ? 1 : num_ps;
        OPTIMUS_CHECK_GE(p, 1);
        OPTIMUS_CHECK_GE(num_workers, 1);
        return SpeedFromTheta(mode_, batch_, theta_.data(), p, num_workers) / steps_per_epoch_;
      }
      case Kind::kNaiveLinear:
        return f11_ * static_cast<double>(num_workers) / steps_per_epoch_;
      case Kind::kOracle:
        return OracleSpeed(num_ps, num_workers);
      case Kind::kCustom:
        return fn_(ctx_, num_ps, num_workers);
    }
    return 0.0;
  }

  // Physical speed at (p, w) when the job runs global batch b, before any
  // statistical-efficiency discount: f(p, w) * T(ref) / T(b), the step times
  // of the batch-scaling profile at its reference batch and at b. Requires
  // batch_scalable().
  double BatchSpeed(int num_ps, int num_workers, int global_batch) const;

  // Equal estimates are pointwise identical: same kind, same fields (for
  // kCustom, the same fn and the same ctx).
  bool operator==(const SpeedEstimate&) const = default;
  size_t Hash() const;

 private:
  double OracleSpeed(int num_ps, int num_workers) const;

  Kind kind_ = Kind::kZero;
  bool pin_ps_ = false;         // kFitted: evaluate the p = 1 row
  bool batch_scaling_ = false;  // profile_ and comm_ feed BatchSpeed
  TrainingMode mode_ = TrainingMode::kSync;  // kFitted: Eqn 3 or 4
  double batch_ = 0.0;                       // kFitted: θ's batch M
  std::array<double, 5> theta_{};            // kFitted: θ (4 async, 5 sync)
  double f11_ = 0.0;                         // kNaiveLinear: f(1, 1) in steps/s
  double steps_per_epoch_ = 1.0;
  StepProfile profile_;  // kOracle, batch scaling
  CommConfig comm_;      // kOracle, batch scaling
  double error_ = 0.0;   // kOracle: slope error
  double span_ = 0.0;    // kOracle: max_ps + max_workers
  CustomFn fn_ = nullptr;
  const void* ctx_ = nullptr;
};

}  // namespace optimus

#endif  // SRC_SCHED_SPEED_ESTIMATE_H_
