// optimus_train_policy — offline trainer for the DL2 learned policy.
//
// Samples deterministic synthetic allocation states (seeded; same flags =>
// same states => same weights, bit for bit), computes Optimus's Eqn-9
// marginal gain as the regression target at every candidate grant, and fits
// non-negative linear weights over the shared Dl2Features vector with the
// repo's NNLS solver. The result is the weight vector the "dl2" policy's
// factory bakes in (src/sched/dl2_allocator.cc DefaultDl2Weights); retraining
// means re-running this tool and updating those constants.
//
// Examples:
//   optimus_train_policy                       # default --seed=42 --states=4000
//   optimus_train_policy --seed=7 --states=10000 --out=/tmp/weights.json
//
// Exit codes: 0 trained, 2 bad flags, 3 fit failed to converge.

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "src/cluster/resources.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/models/model_zoo.h"
#include "src/pserver/comm_model.h"
#include "src/sched/dl2_allocator.h"
#include "src/solver/nnls.h"

namespace {

using namespace optimus;

std::string Usage() {
  return "optimus_train_policy: offline NNLS trainer for the dl2 policy\n"
         "\n"
         "Flags:\n"
         "  --seed=N        RNG seed for the synthetic state sweep (default 42)\n"
         "  --states=N      number of synthetic allocation states (default 4000)\n"
         "  --out=FILE      also write the weights as JSON\n"
         "                  ({\"format\": \"optimus-dl2-weights-v1\", ...})\n"
         "  --help          this message\n";
}

// One synthetic allocation state: a job mid-training at (p, w) in a cluster
// with some free capacity. Mirrors the quantities the allocator sees at a
// grant decision.
struct TrainState {
  const ModelSpec* model = nullptr;
  TrainingMode mode = TrainingMode::kSync;
  CommMode comm = CommMode::kParameterServer;
  int num_ps = 1;
  int num_workers = 1;
  int max_ps = 16;
  int max_workers = 16;
  double remaining_epochs = 10.0;
  Resources worker_demand;
  Resources ps_demand;
  Resources capacity;
};

// Estimated speed in epochs/s at (p, w), the unit SchedJob::speed uses.
double EpochSpeed(const TrainState& s, int p, int w, const CommConfig& comm) {
  StepTimeInputs in;
  in.model = s.model;
  in.mode = s.mode;
  in.comm = s.comm;
  in.num_ps = p;
  in.num_workers = w;
  const int batch = s.mode == TrainingMode::kSync
                        ? s.model->default_sync_batch
                        : s.model->default_async_minibatch;
  const double spe = static_cast<double>(s.model->StepsPerEpoch(batch));
  return TrainingSpeed(in, comm) / spe;
}

// Optimus's Eqn-9 marginal gain for the grant (the teacher signal), squashed
// to [0, 1) so no single state dominates the least-squares objective:
// gains span orders of magnitude across model sizes.
double TeacherTarget(double remaining_epochs, double f0, double f1,
                     const Resources& unit, const Resources& capacity) {
  constexpr double kSpeedEps = 1e-9;
  const double t0 = remaining_epochs / std::max(f0, kSpeedEps);
  const double t1 = remaining_epochs / std::max(f1, kSpeedEps);
  const double dom = unit.Get(unit.DominantResource(capacity));
  if (dom <= 0.0) {
    return 0.0;
  }
  const double gain = std::max(0.0, (t0 - t1) / dom);
  return gain / (1.0 + gain);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout << Usage();
    return 0;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int states = flags.GetInt32("states", 4000);
  const std::string out_path = flags.GetString("out", "");
  const std::vector<std::string> unknown = flags.UnconsumedKeys();
  if (!unknown.empty()) {
    std::cerr << "unknown flag(s):";
    for (const std::string& k : unknown) {
      std::cerr << " --" << k;
    }
    std::cerr << "\n\n" << Usage();
    return 2;
  }
  if (states < 1) {
    std::cerr << "--states must be >= 1\n";
    return 2;
  }

  const std::vector<ModelSpec>& zoo = GetModelZoo();
  const CommConfig comm_config;
  const Rng root(seed);

  // Each state draws from its own split stream, so the sweep is insensitive
  // to sample-count changes upstream of any given state (same discipline as
  // the workload generators).
  std::vector<std::array<double, kDl2NumFeatures>> rows;
  std::vector<double> targets;
  rows.reserve(static_cast<size_t>(states) * 2);
  targets.reserve(static_cast<size_t>(states) * 2);
  for (int i = 0; i < states; ++i) {
    Rng rng = root.Split(1000 + static_cast<uint64_t>(i));
    TrainState s;
    s.model = &zoo[static_cast<size_t>(rng.UniformInt(0, zoo.size() - 1))];
    s.mode = rng.Bernoulli(0.5) ? TrainingMode::kSync : TrainingMode::kAsync;
    s.comm = rng.Bernoulli(0.2) ? CommMode::kAllReduce : CommMode::kParameterServer;
    if (s.comm == CommMode::kAllReduce) {
      s.mode = TrainingMode::kSync;
      s.max_ps = 0;
    }
    s.num_workers = static_cast<int>(rng.UniformInt(1, 12));
    s.num_ps = s.max_ps > 0 ? static_cast<int>(rng.UniformInt(1, 8)) : 0;
    s.remaining_epochs = rng.Uniform(0.5, 60.0);
    s.worker_demand = Resources(2.5, 10, 0, 0.15);
    s.ps_demand = s.max_ps > 0 ? Resources(2.5, 10, 0, 0.15) : Resources();
    const int servers = static_cast<int>(rng.UniformInt(5, 20));
    s.capacity = Resources(16, 80, 0, 1) * servers;

    const double f0 = EpochSpeed(s, s.num_ps, s.num_workers, comm_config);
    // Worker grant, then PS grant (when the job runs PS tasks and is below
    // its cap) — the same candidate kinds the allocator scores.
    if (s.num_workers < s.max_workers) {
      const double f1 = EpochSpeed(s, s.num_ps, s.num_workers + 1, comm_config);
      rows.push_back(Dl2Features(s.remaining_epochs, f0, f1, s.worker_demand,
                                 s.capacity, s.num_ps, s.num_workers));
      targets.push_back(TeacherTarget(s.remaining_epochs, f0, f1,
                                      s.worker_demand, s.capacity));
    }
    if (s.max_ps > 0 && s.num_ps < s.max_ps) {
      const double f1 = EpochSpeed(s, s.num_ps + 1, s.num_workers, comm_config);
      rows.push_back(Dl2Features(s.remaining_epochs, f0, f1, s.ps_demand,
                                 s.capacity, s.num_ps, s.num_workers));
      targets.push_back(TeacherTarget(s.remaining_epochs, f0, f1, s.ps_demand,
                                      s.capacity));
    }
  }
  OPTIMUS_CHECK(!rows.empty());

  Matrix a(rows.size(), kDl2NumFeatures);
  Vector b(rows.size(), 0.0);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < kDl2NumFeatures; ++c) {
      a(r, c) = rows[r][c];
    }
    b[r] = targets[r];
  }
  const NnlsResult fit = SolveNnls(a, b);
  if (!fit.converged) {
    std::cerr << "NNLS failed to converge after " << fit.iterations
              << " iteration(s)\n";
    return 3;
  }

  std::cout << "trained on " << rows.size() << " candidate grants from "
            << states << " states (seed " << seed << "), rss "
            << fit.residual_sum_of_squares << ", " << fit.iterations
            << " NNLS iteration(s)\n";
  std::cout << std::setprecision(15);
  const char* kFeatureNames[kDl2NumFeatures] = {
      "bias", "completion_reduction", "speed_gain", "packing_cheapness",
      "srtf_urgency", "small_alloc_bonus"};
  for (size_t k = 0; k < kDl2NumFeatures; ++k) {
    std::cout << "  w[" << k << "] " << kFeatureNames[k] << " = " << fit.x[k]
              << "\n";
  }
  std::cout << "paste into DefaultDl2Weights() (src/sched/dl2_allocator.cc):\n"
            << "  return Dl2Weights{";
  for (size_t k = 0; k < kDl2NumFeatures; ++k) {
    std::cout << (k > 0 ? ", " : "") << fit.x[k];
  }
  std::cout << "};\n";

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    OPTIMUS_CHECK(os.good()) << "cannot write " << out_path;
    os << std::setprecision(17);
    os << "{\"format\": \"optimus-dl2-weights-v1\", \"seed\": " << seed
       << ", \"states\": " << states << ", \"weights\": [";
    for (size_t k = 0; k < kDl2NumFeatures; ++k) {
      os << (k > 0 ? ", " : "") << fit.x[k];
    }
    os << "]}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
