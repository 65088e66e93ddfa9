// Ground-truth step-time model of the parameter-server architecture.
//
// Instantiates Eqn 2 of the paper,
//
//   T = m*T_fwd + T_back + 2*(S/p)/(B/w') + T_update*w'/p + delta*w + delta'*p
//
// generalized with three effects the scheduler must cope with in practice:
//  - placement: communication between colocated worker/PS pairs bypasses the
//    network; cross-server transfer time follows the per-task accounting of
//    Theorem 1 (the slowest NIC determines the step's transfer time),
//  - PS load imbalance: the most loaded parameter server (from the block
//    assignment) gates both the transfer and the update term, and slicing
//    inflates the per-request overhead,
//  - stragglers: a per-worker speed factor scales the compute terms; for
//    synchronous training the slowest worker gates the step.
//
// The Optimus scheduler never calls this directly — it fits Eqns 3/4 to
// observed speeds (see src/perfmodel/speed_model.h). This model is the
// "physics" those observations come from.

#ifndef SRC_PSERVER_COMM_MODEL_H_
#define SRC_PSERVER_COMM_MODEL_H_

#include <vector>

#include "src/models/model_zoo.h"
#include "src/pserver/block_assignment.h"

namespace optimus {

// Cluster-wide communication constants.
struct CommConfig {
  // NIC bandwidth available to one container (bytes/s). The paper's testbed
  // uses a 1 GbE switch shared by several containers per server; ~50 MB/s
  // effective per container (protocol + contention overhead included).
  double container_bandwidth_bps = 50e6;
  // Fraction of workers that, in asynchronous training, contend at a
  // parameter server at the same instant (the paper assumes w' linear in w).
  double async_concurrency = 0.7;

  bool operator==(const CommConfig&) const = default;
};

// Where one job's tasks run, as three parallel arrays over the servers
// hosting at least one of its tasks: used_servers (ascending server ids),
// used_workers and used_ps (the task counts on each). O(tasks) memory, never
// O(n_servers). An empty placement means "assume every transfer crosses the
// network" (the pure Eqn-2 regime).
struct JobPlacement {
  std::vector<int> used_servers;
  std::vector<int> used_workers;
  std::vector<int> used_ps;

  int TotalWorkers() const;
  int TotalPs() const;
  bool empty() const { return used_servers.empty(); }

  // Calls fn(server_index, workers, ps) for every server hosting at least
  // one task, in ascending server order.
  template <typename Fn>
  void ForEachUsed(Fn&& fn) const {
    for (size_t i = 0; i < used_servers.size(); ++i) {
      fn(static_cast<size_t>(used_servers[i]), used_workers[i], used_ps[i]);
    }
  }
};

struct StepTimeInputs {
  const ModelSpec* model = nullptr;
  TrainingMode mode = TrainingMode::kSync;
  // Communication architecture. Ring all-reduce jobs run zero PS tasks
  // (num_ps == 0) and exchange gradients worker-to-worker:
  //   T_transfer = 2*(w-1)/w * S / B_min
  // over the slowest link of the ring; the update and PS-side overhead terms
  // vanish. All-reduce is synchronous by construction.
  CommMode comm = CommMode::kParameterServer;
  int num_ps = 1;
  int num_workers = 1;
  // Global batch M (sync). When <= 0 the model default is used.
  int global_batch = 0;
  // Per-worker mini-batch m (async). When <= 0 the model default is used.
  int async_minibatch = 0;
  // Load shape from the block assignment; defaults to perfectly balanced.
  PsLoadMetrics load;
  bool load_valid = false;
  // Borrowed placement (see JobPlacement); null or empty = every transfer
  // crosses the network. The pointee must outlive the call.
  const JobPlacement* placement = nullptr;
  // Speed factor of the slowest worker (1.0 = healthy; 0.5 = half speed).
  double slowest_worker_factor = 1.0;
  // Effective per-container network bandwidth (bytes/s) resolved by a
  // network model (src/net/): the fair share of the job's most contended
  // link. <= 0 selects CommConfig::container_bandwidth_bps — the flat
  // Eqn-2 constant — which keeps the default arithmetic bit-identical.
  double net_bw_bps = 0.0;
};

struct StepTimeBreakdown {
  double forward_s = 0.0;
  double backward_s = 0.0;
  double transfer_s = 0.0;
  double update_s = 0.0;
  double overhead_s = 0.0;
  double total_s = 0.0;
};

// Duration of one training step on (the slowest) worker.
StepTimeBreakdown ComputeStepTime(const StepTimeInputs& inputs, const CommConfig& config);

// Job-level training speed in steps per second: 1/T for synchronous training,
// w/T for asynchronous training (§3.2).
double TrainingSpeed(const StepTimeInputs& inputs, const CommConfig& config);

}  // namespace optimus

#endif  // SRC_PSERVER_COMM_MODEL_H_
