#include "src/cluster/checkpoint.h"

namespace optimus {

double CheckpointStallSeconds(const ModelSpec& model) {
  const double bytes = static_cast<double>(model.ParamBytes());
  // Write the checkpoint, then read it back on restart.
  return 2.0 * bytes / kHdfsThroughputBps + kRelaunchOverheadS;
}

bool ScalingAllowed(int num_scalings_so_far, const CheckpointConfig& config) {
  if (config.max_scalings_per_job <= 0) {
    return true;
  }
  return num_scalings_so_far < config.max_scalings_per_job;
}

}  // namespace optimus
