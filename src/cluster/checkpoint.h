// Checkpoint-based elastic scaling cost model (§5.4, §7 "Scaling overhead").
//
// Adjusting a job's resources saves the model to HDFS and restarts from the
// checkpoint. The stall is the serialized model size over HDFS throughput
// (write + read) plus container relaunch time. A per-job checkpoint budget
// can bound how often long-running jobs are allowed to rescale.

#ifndef SRC_CLUSTER_CHECKPOINT_H_
#define SRC_CLUSTER_CHECKPOINT_H_

#include "src/models/model_zoo.h"

namespace optimus {

// Effective HDFS write/read throughput seen by one job (bytes/s).
inline constexpr double kHdfsThroughputBps = 100e6;
// Fixed cost to tear down and relaunch the job's containers.
inline constexpr double kRelaunchOverheadS = 15.0;

struct CheckpointConfig {
  // Maximum scaling events per job; <= 0 means unlimited (§7 suggests
  // limiting restarts for large jobs).
  int max_scalings_per_job = 0;
};

// Stall (seconds) for one checkpoint-save + restore + relaunch of `model`.
double CheckpointStallSeconds(const ModelSpec& model);

// Whether a job that has already rescaled `num_scalings_so_far` times may
// rescale again under `config`.
bool ScalingAllowed(int num_scalings_so_far, const CheckpointConfig& config);

}  // namespace optimus

#endif  // SRC_CLUSTER_CHECKPOINT_H_
