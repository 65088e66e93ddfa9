#include "src/pserver/block_assignment.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/logging.h"

namespace optimus {

PsLoadMetrics ComputeLoadMetrics(const BlockAssignment& assignment) {
  OPTIMUS_CHECK_GT(assignment.num_ps, 0);
  std::vector<int64_t> params(assignment.num_ps, 0);
  std::vector<int64_t> requests(assignment.num_ps, 0);
  int64_t total_params = 0;
  for (const BlockSlice& slice : assignment.slices) {
    OPTIMUS_CHECK_GE(slice.ps, 0);
    OPTIMUS_CHECK_LT(slice.ps, assignment.num_ps);
    params[slice.ps] += slice.size;
    requests[slice.ps] += 1;
    total_params += slice.size;
  }

  PsLoadMetrics metrics;
  metrics.total_requests = static_cast<int64_t>(assignment.slices.size());
  metrics.param_size_diff = *std::max_element(params.begin(), params.end()) -
                            *std::min_element(params.begin(), params.end());
  metrics.request_count_diff = *std::max_element(requests.begin(), requests.end()) -
                               *std::min_element(requests.begin(), requests.end());
  metrics.max_ps_params = *std::max_element(params.begin(), params.end());
  metrics.max_param_fraction =
      total_params > 0
          ? static_cast<double>(metrics.max_ps_params) / static_cast<double>(total_params)
          : 0.0;
  return metrics;
}

BlockAssignment MxnetAssigner::Assign(const ParamBlockSizes& blocks, int num_ps,
                                      Rng* rng) const {
  OPTIMUS_CHECK_GT(num_ps, 0);
  OPTIMUS_CHECK(rng != nullptr);
  BlockAssignment assignment;
  assignment.num_ps = num_ps;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const int64_t size = blocks[i];
    if (size < slice_threshold_ || num_ps == 1) {
      const int ps = static_cast<int>(rng->UniformInt(0, num_ps - 1));
      assignment.slices.push_back({static_cast<int>(i), size, ps});
    } else {
      // Slice evenly among all parameter servers; remainder parameters are
      // spread one-per-PS over the first slices.
      const int64_t base = size / num_ps;
      int64_t remainder = size % num_ps;
      for (int ps = 0; ps < num_ps; ++ps) {
        int64_t part = base + (ps < remainder ? 1 : 0);
        if (part > 0) {
          assignment.slices.push_back({static_cast<int>(i), part, ps});
        }
      }
    }
  }
  return assignment;
}

std::vector<int> PaaBlockOrder(const ParamBlockSizes& blocks) {
  std::vector<int> order(blocks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return blocks[a] != blocks[b] ? blocks[a] > blocks[b] : a < b;
  });
  return order;
}

BlockAssignment PaaAssigner::Assign(const ParamBlockSizes& blocks, int num_ps,
                                    const std::vector<double>* ps_weights) const {
  return Assign(blocks, PaaBlockOrder(blocks), num_ps, ps_weights);
}

BlockAssignment PaaAssigner::Assign(const ParamBlockSizes& blocks,
                                    const std::vector<int>& order, int num_ps,
                                    const std::vector<double>* ps_weights) const {
  OPTIMUS_CHECK_GT(num_ps, 0);
  OPTIMUS_CHECK_EQ(order.size(), blocks.size());
  if (ps_weights != nullptr) {
    OPTIMUS_CHECK_EQ(static_cast<int>(ps_weights->size()), num_ps);
    for (double w : *ps_weights) {
      OPTIMUS_CHECK_GT(w, 0.0);
    }
  }
  BlockAssignment assignment;
  assignment.num_ps = num_ps;

  const int64_t total = std::accumulate(blocks.begin(), blocks.end(), int64_t{0});
  const double avg_size = static_cast<double>(total) / num_ps;
  const double tiny_cutoff = tiny_fraction_ * avg_size;

  std::vector<int64_t> assigned(num_ps, 0);
  std::vector<int64_t> requests(num_ps, 0);

  auto place = [&](int block_id, int64_t size, int ps) {
    assignment.slices.push_back({block_id, size, ps});
    assigned[ps] += size;
    requests[ps] += 1;
  };

  // Weighted load of a PS: raw parameter count when no weights are given
  // (historical path, integer compare), assigned/weight otherwise.
  auto least_loaded_ps = [&]() {
    int best = 0;
    if (ps_weights == nullptr) {
      for (int ps = 1; ps < num_ps; ++ps) {
        if (assigned[ps] < assigned[best]) {
          best = ps;
        }
      }
      return best;
    }
    double best_load =
        static_cast<double>(assigned[0]) / (*ps_weights)[0];
    for (int ps = 1; ps < num_ps; ++ps) {
      const double load = static_cast<double>(assigned[ps]) / (*ps_weights)[ps];
      if (load < best_load) {
        best_load = load;
        best = ps;
      }
    }
    return best;
  };

  // Blocks in decreasing order of size, ties by ascending block id.
  for (int block_id : order) {
    const int64_t size = blocks[block_id];
    const double dsize = static_cast<double>(size);
    if (dsize < tiny_cutoff) {
      // Tiny block: balance request counts.
      int best = 0;
      for (int ps = 1; ps < num_ps; ++ps) {
        if (requests[ps] < requests[best]) {
          best = ps;
        }
      }
      place(block_id, size, best);
    } else if (dsize <= avg_size) {
      // Mid-size block: best fit into the smallest remaining capacity that
      // still accommodates it; fall back to the least-loaded PS.
      int best = -1;
      double best_remaining = std::numeric_limits<double>::infinity();
      for (int ps = 0; ps < num_ps; ++ps) {
        const double remaining = avg_size - static_cast<double>(assigned[ps]);
        if (remaining >= dsize && remaining < best_remaining) {
          best_remaining = remaining;
          best = ps;
        }
      }
      if (best < 0) {
        best = least_loaded_ps();
      }
      place(block_id, size, best);
    } else {
      // Oversized block: slice into avg_size partitions (last one smaller),
      // each placed on the PS with the least assigned parameters.
      int64_t remaining = size;
      const int64_t part_size = std::max<int64_t>(1, static_cast<int64_t>(avg_size));
      while (remaining > 0) {
        const int64_t part = std::min(remaining, part_size);
        place(block_id, part, least_loaded_ps());
        remaining -= part;
      }
    }
  }
  return assignment;
}

namespace {

// True when `ps_weights` cannot change PAA's choices. Weights enter only the
// least-loaded compare, as assigned / w. Parameter counts are integers below
// 2^52; one finite divisor w >= 2^-960 keeps every quotient finite and
// rounds no two distinct counts to one double, so every strict order and
// every tie among the counts survives the division.
bool WeightsAreUniform(const std::vector<double>& ps_weights) {
  const double w = ps_weights.front();
  return w >= 0x1p-960 && w <= std::numeric_limits<double>::max() &&
         std::all_of(ps_weights.begin(), ps_weights.end(),
                     [w](double x) { return x == w; });
}

}  // namespace

PaaLoadTable::PaaLoadTable(ParamBlockSizes blocks)
    : blocks_(std::move(blocks)), order_(PaaBlockOrder(blocks_)) {
  OPTIMUS_CHECK_LT(std::accumulate(blocks_.begin(), blocks_.end(), int64_t{0}),
                   int64_t{1} << 52);
}

PsLoadMetrics PaaLoadTable::Load(int num_ps, const std::vector<double>* ps_weights) {
  OPTIMUS_CHECK_GT(num_ps, 0);
  if (ps_weights != nullptr) {
    OPTIMUS_CHECK_EQ(static_cast<int>(ps_weights->size()), num_ps);
    for (double w : *ps_weights) {
      OPTIMUS_CHECK_GT(w, 0.0);
    }
    if (!WeightsAreUniform(*ps_weights)) {
      return ComputeLoadMetrics(
          PaaAssigner().Assign(blocks_, order_, num_ps, ps_weights));
    }
  }
  const size_t slot = static_cast<size_t>(num_ps - 1);
  if (slot >= unweighted_.size()) {
    unweighted_.resize(slot + 1);
  }
  if (!unweighted_[slot].has_value()) {
    unweighted_[slot] = ComputeLoadMetrics(PaaAssigner().Assign(blocks_, order_, num_ps));
  }
  return *unweighted_[slot];
}

PsLoadMetrics BalancedLoadMetrics(int64_t total_params, int num_ps, int num_blocks) {
  OPTIMUS_CHECK_GT(num_ps, 0);
  PsLoadMetrics metrics;
  metrics.param_size_diff = 0;
  metrics.request_count_diff = 0;
  metrics.total_requests = num_blocks;
  metrics.max_ps_params = (total_params + num_ps - 1) / num_ps;
  metrics.max_param_fraction = 1.0 / static_cast<double>(num_ps);
  return metrics;
}

}  // namespace optimus
