// Parameter-block to parameter-server assignment algorithms (§5.3).
//
// Two algorithms are implemented:
//  - MxnetAssigner: MXNet's default rule. Blocks smaller than a threshold
//    (10^6 parameters by default) go to a uniformly random PS; larger blocks
//    are sliced evenly across all PSes. This is the load-imbalance baseline
//    the paper identifies.
//  - PaaAssigner: the paper's Parameter Assignment Algorithm. Blocks are
//    processed in decreasing size order; tiny blocks (< 1% of the average
//    per-PS size) go to the PS with the fewest update requests, mid-size
//    blocks are best-fit into remaining capacity, and blocks larger than the
//    average are sliced into average-sized partitions placed on the least
//    loaded PS.

#ifndef SRC_PSERVER_BLOCK_ASSIGNMENT_H_
#define SRC_PSERVER_BLOCK_ASSIGNMENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/models/param_blocks.h"

namespace optimus {

// One contiguous slice of a parameter block placed on one parameter server.
// An unsliced block is a single slice covering the whole block. Each slice is
// one "parameter update request" per worker per training step.
struct BlockSlice {
  int block_id = 0;
  int64_t size = 0;  // parameters
  int ps = 0;        // parameter-server index in [0, num_ps)
};

struct BlockAssignment {
  int num_ps = 0;
  std::vector<BlockSlice> slices;
};

// Aggregate load statistics of an assignment; the three quantities §5.3
// minimizes, plus the bytes fraction the communication model consumes.
struct PsLoadMetrics {
  // max - min of per-PS parameter counts.
  int64_t param_size_diff = 0;
  // max - min of per-PS request counts.
  int64_t request_count_diff = 0;
  // Total per-worker update requests per step (= number of slices).
  int64_t total_requests = 0;
  // Parameter count on the most loaded PS.
  int64_t max_ps_params = 0;
  // max_ps_params / total params; equals 1/p under perfect balance.
  double max_param_fraction = 0.0;
};

PsLoadMetrics ComputeLoadMetrics(const BlockAssignment& assignment);

// MXNet's default threshold rule.
class MxnetAssigner {
 public:
  explicit MxnetAssigner(int64_t slice_threshold = 1000000)
      : slice_threshold_(slice_threshold) {}

  // `rng` drives the random placement of sub-threshold blocks.
  BlockAssignment Assign(const ParamBlockSizes& blocks, int num_ps, Rng* rng) const;

 private:
  int64_t slice_threshold_;
};

// The paper's PAA (§5.3).
class PaaAssigner {
 public:
  // `tiny_fraction` is the "very small" cutoff relative to avg_size (the
  // paper's default is 1%).
  explicit PaaAssigner(double tiny_fraction = 0.01) : tiny_fraction_(tiny_fraction) {}

  // `ps_weights` (optional) biases the least-loaded choice toward parameter
  // servers on less congested links: each PS carries a weight in (0, 1] and
  // "load" compares assigned[ps] / weight[ps], so a PS at weight 0.5 looks
  // twice as loaded as its raw parameter count. Null (the default) keeps the
  // unweighted comparison and is bit-identical to the historical assignment.
  BlockAssignment Assign(const ParamBlockSizes& blocks, int num_ps,
                         const std::vector<double>* ps_weights = nullptr) const;

  // The same with the visiting order given: `order` must be
  // PaaBlockOrder(blocks), so a caller that assigns one block set many times
  // sorts it once.
  BlockAssignment Assign(const ParamBlockSizes& blocks, const std::vector<int>& order,
                         int num_ps,
                         const std::vector<double>* ps_weights = nullptr) const;

 private:
  double tiny_fraction_;
};

// The order PAA visits blocks in: decreasing size, ties by ascending block id
// (the permutation a stable sort by size gives).
std::vector<int> PaaBlockOrder(const ParamBlockSizes& blocks);

// One model's parameter blocks with what the default PaaAssigner derives from
// them alone: the block order, sorted once, and the unweighted load metrics
// per PS count. Without weights PAA is a pure function of (blocks, num_ps),
// so each count's metrics are computed on first use and read back after
// that. Weights that are all equal order the PSes as no weights do, so they
// read the same entry; other weights recompute the load on every call,
// reusing only the order. The blocks must total fewer than 2^52 parameters.
// Load() fills the table, so one instance is not safe to share across
// threads.
class PaaLoadTable {
 public:
  explicit PaaLoadTable(ParamBlockSizes blocks);

  const ParamBlockSizes& blocks() const { return blocks_; }

  // ComputeLoadMetrics(PaaAssigner().Assign(blocks(), num_ps, ps_weights)),
  // bit for bit.
  PsLoadMetrics Load(int num_ps, const std::vector<double>* ps_weights = nullptr);

 private:
  ParamBlockSizes blocks_;
  std::vector<int> order_;
  std::vector<std::optional<PsLoadMetrics>> unweighted_;  // [num_ps - 1]
};

// Convenience: load metrics of a hypothetical perfectly balanced assignment
// with one request per block (used when a simulation abstracts away blocks).
PsLoadMetrics BalancedLoadMetrics(int64_t total_params, int num_ps, int num_blocks);

}  // namespace optimus

#endif  // SRC_PSERVER_BLOCK_ASSIGNMENT_H_
