// HDFS-style training-data serving (§5.1).
//
// Training data is stored in fixed-size chunks (128 MB by default) and
// assigned to workers round-robin so that every worker processes a similar
// share. When elastic scaling changes the worker count, the assignment is
// rebalanced while moving as few chunks as possible.

#ifndef SRC_CLUSTER_DATA_SERVING_H_
#define SRC_CLUSTER_DATA_SERVING_H_

#include <cstdint>
#include <vector>

#include "src/models/model_zoo.h"

namespace optimus {

inline constexpr int64_t kDefaultChunkBytes = 128LL * 1024 * 1024;

// Approximate on-disk bytes of one training example for a model's dataset
// (raw images are large, text examples are small, audio is the largest).
int64_t EstimateExampleBytes(const ModelSpec& spec);

// Total dataset bytes after optional downscaling, unrounded.
double ExactDatasetBytes(const ModelSpec& spec, double dataset_scale = 1.0);

// ExactDatasetBytes() rounded down, at least 1; at most kMaxDatasetBytes
// (src/cluster/job.h).
int64_t EstimateDatasetBytes(const ModelSpec& spec, double dataset_scale = 1.0);

class DataServing {
 public:
  // Creates the chunk set for a dataset of `dataset_bytes` (at least 1 chunk).
  explicit DataServing(int64_t dataset_bytes, int64_t chunk_bytes = kDefaultChunkBytes);

  int64_t num_chunks() const { return static_cast<int64_t>(chunk_owner_.size()); }

  // Assigns all chunks round-robin over `num_workers` workers, replacing any
  // previous assignment.
  void AssignInitial(int num_workers);

  // Rebalances the existing assignment to a new worker count, moving the
  // minimum number of chunks. Returns the number of chunks moved.
  int64_t Rebalance(int new_num_workers);

  int num_workers() const { return num_workers_; }

  // Chunks owned by each worker.
  std::vector<int64_t> ChunksPerWorker() const;

  // max - min chunks across workers; the balance invariant is <= 1.
  int64_t MaxMinSpread() const;

 private:
  std::vector<int> chunk_owner_;  // chunk index -> worker index
  int num_workers_ = 0;
};

}  // namespace optimus

#endif  // SRC_CLUSTER_DATA_SERVING_H_
