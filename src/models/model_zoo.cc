#include "src/models/model_zoo.h"

#include <algorithm>

#include "src/common/logging.h"

namespace optimus {

const char* TrainingModeName(TrainingMode mode) {
  switch (mode) {
    case TrainingMode::kAsync:
      return "async";
    case TrainingMode::kSync:
      return "sync";
  }
  return "UNKNOWN";
}

int64_t ModelSpec::StepsPerEpoch(int global_batch) const {
  OPTIMUS_CHECK_GT(global_batch, 0);
  return std::max<int64_t>(1, dataset_examples / global_batch);
}

namespace {

ModelSpec MakeModel(std::string name, double params_millions, NetworkType network,
                    std::string domain, std::string dataset, int64_t dataset_examples,
                    int sync_batch, int async_minibatch, ComputeProfile compute,
                    LossCurveParams loss, int num_param_blocks) {
  ModelSpec spec;
  spec.name = std::move(name);
  spec.params_millions = params_millions;
  spec.network = network;
  spec.domain = std::move(domain);
  spec.dataset = std::move(dataset);
  spec.dataset_examples = dataset_examples;
  spec.default_sync_batch = sync_batch;
  spec.default_async_minibatch = async_minibatch;
  spec.compute = compute;
  spec.loss = loss;
  spec.num_param_blocks = num_param_blocks;
  return spec;
}

std::vector<ModelSpec> BuildZoo() {
  std::vector<ModelSpec> zoo;

  // Compute constants are calibrated for 5-CPU-core containers so that
  // training speeds land in the 0.05..5 steps/s range the paper reports
  // (Figs 4, 9, 20), and so that the single-node completion times spread from
  // minutes (CNN-rand) to weeks (ResNet-50), as in Fig 2.

  zoo.push_back(MakeModel(
      "ResNext-110", 1.7, NetworkType::kCnn, "image classification", "CIFAR10", 60000,
      /*sync_batch=*/128, /*async_minibatch=*/16,
      ComputeProfile{.fwd_time_per_example_s = 0.03,
                     .min_effective_batch = 13,
                     .back_time_s = 0.9,
                     .update_time_full_s = 0.06,
                     .overhead_per_worker_s = 0.05,
                     .overhead_per_ps_s = 0.03},
      LossCurveParams{.c0 = 0.18, .c1 = 0.45, .c2 = 0.20, .noise_sd = 0.03,
                      .val_gap = 0.12, .max_accuracy = 0.94},
      /*num_param_blocks=*/327));

  zoo.push_back(MakeModel(
      "ResNet-50", 25.0, NetworkType::kCnn, "image classification",
      "ILSVRC2012-ImageNet", 1313788,
      /*sync_batch=*/128, /*async_minibatch=*/16,
      ComputeProfile{.fwd_time_per_example_s = 1.02,
                     .min_effective_batch = 13,
                     .back_time_s = 2.78,
                     .update_time_full_s = 0.8,
                     .overhead_per_worker_s = 0.25,
                     .overhead_per_ps_s = 0.12},
      LossCurveParams{.c0 = 0.22, .c1 = 0.14, .c2 = 0.90, .noise_sd = 0.02,
                      .val_gap = 0.10, .max_accuracy = 0.76},
      /*num_param_blocks=*/157));

  zoo.push_back(MakeModel(
      "Inception-BN", 11.3, NetworkType::kCnn, "image classification", "Caltech", 30607,
      /*sync_batch=*/64, /*async_minibatch=*/8,
      ComputeProfile{.fwd_time_per_example_s = 0.55,
                     .min_effective_batch = 6,
                     .back_time_s = 1.9,
                     .update_time_full_s = 0.36,
                     .overhead_per_worker_s = 0.15,
                     .overhead_per_ps_s = 0.08},
      LossCurveParams{.c0 = 0.30, .c1 = 0.25, .c2 = 0.55, .noise_sd = 0.03,
                      .val_gap = 0.15, .max_accuracy = 0.80},
      /*num_param_blocks=*/412));

  zoo.push_back(MakeModel(
      "KAGGLE", 1.4, NetworkType::kCnn, "image classification", "Kaggle-NDSB1", 37920,
      /*sync_batch=*/64, /*async_minibatch=*/8,
      ComputeProfile{.fwd_time_per_example_s = 0.08,
                     .min_effective_batch = 6,
                     .back_time_s = 0.7,
                     .update_time_full_s = 0.05,
                     .overhead_per_worker_s = 0.04,
                     .overhead_per_ps_s = 0.02},
      LossCurveParams{.c0 = 0.45, .c1 = 0.35, .c2 = 0.60, .noise_sd = 0.04,
                      .val_gap = 0.18, .max_accuracy = 0.70},
      /*num_param_blocks=*/58));

  zoo.push_back(MakeModel(
      "CNN-rand", 6.0, NetworkType::kCnn, "sentence classification", "MR", 10662,
      /*sync_batch=*/50, /*async_minibatch=*/50,
      ComputeProfile{.fwd_time_per_example_s = 0.015,
                     .min_effective_batch = 5,
                     .back_time_s = 0.35,
                     .update_time_full_s = 0.2,
                     .overhead_per_worker_s = 0.03,
                     .overhead_per_ps_s = 0.02},
      LossCurveParams{.c0 = 1.20, .c1 = 0.80, .c2 = 0.15, .noise_sd = 0.05,
                      .val_gap = 0.20, .max_accuracy = 0.81},
      /*num_param_blocks=*/24));
  // CNN-rand is embedding-dominated: a single 5.4M-parameter word-embedding
  // table holds 90% of the model.
  zoo.back().dominant_block_params = 5400000;

  zoo.push_back(MakeModel(
      "DSSM", 1.5, NetworkType::kRnn, "word representation", "text8", 214288,
      /*sync_batch=*/256, /*async_minibatch=*/64,
      ComputeProfile{.fwd_time_per_example_s = 0.008,
                     .min_effective_batch = 25,
                     .back_time_s = 0.4,
                     .update_time_full_s = 0.06,
                     .overhead_per_worker_s = 0.02,
                     .overhead_per_ps_s = 0.015},
      LossCurveParams{.c0 = 0.85, .c1 = 0.50, .c2 = 0.30, .noise_sd = 0.04,
                      .val_gap = 0.10, .max_accuracy = 0.65},
      /*num_param_blocks=*/34));
  // DSSM's 1.3M-parameter embedding dominates; above MXNet's slice threshold.
  zoo.back().dominant_block_params = 1300000;

  zoo.push_back(MakeModel(
      "RNN-LSTM-Dropout", 4.7, NetworkType::kRnn, "language modeling", "PTB", 1002000,
      /*sync_batch=*/128, /*async_minibatch=*/32,
      ComputeProfile{.fwd_time_per_example_s = 0.025,
                     .min_effective_batch = 13,
                     .back_time_s = 1.1,
                     .update_time_full_s = 0.16,
                     .overhead_per_worker_s = 0.06,
                     .overhead_per_ps_s = 0.03},
      LossCurveParams{.c0 = 0.26, .c1 = 0.18, .c2 = 0.75, .noise_sd = 0.03,
                      .val_gap = 0.12, .max_accuracy = 0.45},
      /*num_param_blocks=*/22));

  zoo.push_back(MakeModel(
      "Seq2Seq", 9.1, NetworkType::kRnn, "machine translation", "WMT17", 1000000,
      /*sync_batch=*/128, /*async_minibatch=*/32,
      ComputeProfile{.fwd_time_per_example_s = 0.12,
                     .min_effective_batch = 13,
                     .back_time_s = 2.2,
                     .update_time_full_s = 0.32,
                     .overhead_per_worker_s = 0.12,
                     .overhead_per_ps_s = 0.06},
      // The paper's Fig 7 fit for Seq2Seq (in progress units) is beta0=0.21,
      // beta1=1.07, beta2=0.07; we use the same shape family.
      LossCurveParams{.c0 = 0.21, .c1 = 1.07, .c2 = 0.07, .noise_sd = 0.025,
                      .val_gap = 0.10, .max_accuracy = 0.60},
      /*num_param_blocks=*/38));

  zoo.push_back(MakeModel(
      "DeepSpeech2", 38.0, NetworkType::kRnn, "speech recognition", "LibriSpeech", 45000,
      /*sync_batch=*/32, /*async_minibatch=*/8,
      ComputeProfile{.fwd_time_per_example_s = 2.0,
                     .min_effective_batch = 3,
                     .back_time_s = 6.0,
                     .update_time_full_s = 1.25,
                     .overhead_per_worker_s = 0.5,
                     .overhead_per_ps_s = 0.25},
      LossCurveParams{.c0 = 0.16, .c1 = 0.05, .c2 = 1.80, .noise_sd = 0.02,
                      .val_gap = 0.08, .max_accuracy = 0.88},
      /*num_param_blocks=*/86));

  // Batch-adaptivity and resource-sensitivity profiles, consumed only by the
  // policies that opt in (goodput reads the batch range + noise scale,
  // synergy reads the sensitivities); every pre-existing policy ignores them,
  // so adding them perturbs no fixed-batch trajectory. Batch ranges span
  // [M0/2, 4*M0]; phi (gradient noise scale, in examples) is larger for the
  // communication-heavy models that benefit from large batches; sensitivity
  // slopes are flat for the small / embedding-dominated models whose step
  // time is dominated by network transfer rather than local compute.
  struct PolicyProfile {
    const char* name;
    int min_batch;
    int max_batch;
    double phi;
    double cpu_sensitivity;
    double mem_sensitivity;
  };
  constexpr PolicyProfile kProfiles[] = {
      {"ResNext-110", 64, 512, 384.0, 0.9, 0.7},
      {"ResNet-50", 64, 512, 512.0, 1.0, 0.9},
      {"Inception-BN", 32, 256, 192.0, 0.9, 0.8},
      {"KAGGLE", 32, 256, 128.0, 0.6, 0.5},
      {"CNN-rand", 25, 200, 100.0, 0.5, 0.4},
      {"DSSM", 128, 1024, 768.0, 0.5, 0.5},
      {"RNN-LSTM-Dropout", 64, 512, 256.0, 0.8, 0.6},
      {"Seq2Seq", 64, 512, 640.0, 0.8, 0.7},
      {"DeepSpeech2", 16, 128, 96.0, 1.0, 1.0},
  };
  for (ModelSpec& spec : zoo) {
    for (const PolicyProfile& profile : kProfiles) {
      if (spec.name == profile.name) {
        spec.min_global_batch = profile.min_batch;
        spec.max_global_batch = profile.max_batch;
        spec.grad_noise_scale = profile.phi;
        spec.cpu_sensitivity = profile.cpu_sensitivity;
        spec.mem_sensitivity = profile.mem_sensitivity;
        break;
      }
    }
  }

  return zoo;
}

}  // namespace

const std::vector<ModelSpec>& GetModelZoo() {
  static const std::vector<ModelSpec>* zoo = new std::vector<ModelSpec>(BuildZoo());
  return *zoo;
}

const ModelSpec& FindModel(const std::string& name) {
  for (const ModelSpec& spec : GetModelZoo()) {
    if (spec.name == name) {
      return spec;
    }
  }
  OPTIMUS_LOG(Fatal) << "Unknown model: " << name;
  // Unreachable; Fatal aborts.
  return GetModelZoo().front();
}

}  // namespace optimus
