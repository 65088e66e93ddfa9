// The nine deep-learning workloads of Table 1 of the Optimus paper, as
// synthetic model specifications.
//
// The scheduler never inspects these specifications directly (the paper's
// whole point is that Optimus needs no knowledge of model internals); they
// exist to drive the *ground truth* of the simulator: how fast a step really
// takes under a given resource configuration, and how the training loss really
// evolves. Compute-time constants are calibrated so that relative magnitudes
// match the paper's reported behaviour (Fig 2 completion-time spread, Fig 4
// speed curves, Fig 5 loss-curve shapes).

#ifndef SRC_MODELS_MODEL_ZOO_H_
#define SRC_MODELS_MODEL_ZOO_H_

#include <cstdint>
#include <string>
#include <vector>

namespace optimus {

enum class NetworkType {
  kCnn,
  kRnn,
};

// Distributed-training synchronization mode (§2.2).
enum class TrainingMode {
  kAsync,
  kSync,
};

const char* TrainingModeName(TrainingMode mode);

// Distributed-training communication architecture. Parameter-server jobs run
// dedicated PS tasks (Eqn 2); ring all-reduce jobs exchange gradients
// worker-to-worker over a logical ring and run no PS tasks at all.
enum class CommMode {
  kParameterServer,
  kAllReduce,
};

// Ground-truth per-step compute costs on one worker / parameter-server
// container (the paper's testbed uses 5-CPU-core, 10-GB containers).
// These instantiate the terms of Eqn 2.
struct ComputeProfile {
  // Forward propagation per training example (m * t_fwd per step).
  double fwd_time_per_example_s = 0.0;
  // Batch-efficiency floor: per-worker mini-batches below this size stop
  // reducing compute time (vectorization / framework overhead dominates).
  // This is the paper's "smaller mini-batch size may cause CPU/GPU
  // under-utilization" effect that makes synchronous speed *decline* when too
  // many workers split a fixed global batch (Fig 4(b)).
  double min_effective_batch = 1.0;
  // Backward propagation per step (independent of mini-batch size, per §3.2).
  double back_time_s = 0.0;
  // Time to apply a full-model parameter update on a single PS container
  // (T_update in Eqn 2; a PS holding 1/p of the model spends T_update/p per
  // worker update it processes).
  double update_time_full_s = 0.0;
  // Communication overhead coefficients (delta, delta' in Eqn 2): per-step
  // cost that grows linearly with the number of workers / parameter servers.
  double overhead_per_worker_s = 0.0;
  double overhead_per_ps_s = 0.0;
};

// Ground-truth training-loss curve, in epoch units:
//   l(e) = 1 / (c0 * e + c1) + c2
// matching the SGD O(1/k) convergence model the paper fits (Eqn 1). Per-step
// loss uses e = step / steps_per_epoch.
struct LossCurveParams {
  double c0 = 0.0;
  double c1 = 0.0;
  double c2 = 0.0;
  // Standard deviation of multiplicative log-normal noise applied to each
  // observed per-step loss sample.
  double noise_sd = 0.0;
  // Validation loss sits above training loss by roughly this fraction.
  double val_gap = 0.1;
  // Asymptotic training accuracy, for Fig-1 style accuracy curves.
  double max_accuracy = 1.0;
};

struct ModelSpec {
  std::string name;
  double params_millions = 0.0;
  NetworkType network = NetworkType::kCnn;
  std::string domain;
  std::string dataset;
  int64_t dataset_examples = 0;
  // Global batch size M for synchronous training (per-worker m = M / w).
  int default_sync_batch = 0;
  // Per-worker mini-batch size m for asynchronous training.
  int default_async_minibatch = 0;
  ComputeProfile compute;
  LossCurveParams loss;
  // Number of parameter blocks (NN layers' weight/bias/BN tensors) the model
  // partitions into; drives the PS load-balancing experiments (§5.3).
  int num_param_blocks = 0;
  // For embedding-dominated models (word vectors): one block of this many
  // parameters dominates the model; 0 = no dominant block. MXNet's threshold
  // rule slices blocks above 10^6 parameters, so a large embedding ends up
  // evenly sharded even under the default algorithm.
  int64_t dominant_block_params = 0;
  double bytes_per_param = 4.0;

  // --- Batch-adaptivity surface (Pollux-style goodput policies) ----------
  // Admissible global-batch range for synchronous training when a policy is
  // allowed to co-adapt the batch with the allocation. 0/0 = the model does
  // not advertise a range (the batch stays fixed at the configured value).
  int min_global_batch = 0;
  int max_global_batch = 0;
  // Gradient-noise-scale parameter phi of the statistical-efficiency model
  // E(b) = (phi + M0) / (phi + b), in examples. Larger phi = efficiency
  // decays more slowly with batch size (large-batch friendly).
  double grad_noise_scale = 0.0;

  // --- Per-resource sensitivity profile (Synergy-style policies) ---------
  // How strongly step time depends on the CPU / memory grant, in [0, 1]
  // (1 = fully sensitive). Jobs may override per-job via JobSpec.
  double cpu_sensitivity = 1.0;
  double mem_sensitivity = 1.0;

  int64_t TotalParams() const { return static_cast<int64_t>(params_millions * 1e6); }
  int64_t ParamBytes() const {
    return static_cast<int64_t>(params_millions * 1e6 * bytes_per_param);
  }
  // Steps per epoch for a given global batch size (>= 1).
  int64_t StepsPerEpoch(int global_batch) const;
};

// Returns the nine Table-1 models. The returned reference is to a static
// immutable registry.
const std::vector<ModelSpec>& GetModelZoo();

// Looks up a model by name; fatal if absent.
const ModelSpec& FindModel(const std::string& name);

}  // namespace optimus

#endif  // SRC_MODELS_MODEL_ZOO_H_
