#include "src/pserver/comm_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/logging.h"

namespace optimus {

int JobPlacement::TotalWorkers() const {
  return std::accumulate(used_workers.begin(), used_workers.end(), 0);
}

int JobPlacement::TotalPs() const {
  return std::accumulate(used_ps.begin(), used_ps.end(), 0);
}

namespace {

// Cross-server data transfer time per step (one push + one pull), following
// the Theorem-1 per-task accounting: each PS moves its shard to/from every
// remote worker through its own NIC; each worker moves every remote shard
// through its own NIC; the slowest task gates the step.
double CrossServerTransferTime(const StepTimeInputs& in, const CommConfig& config,
                               double max_ps_bytes, double concurrency_factor) {
  const double total_bytes = static_cast<double>(in.model->ParamBytes());
  const double bw =
      in.net_bw_bps > 0.0 ? in.net_bw_bps : config.container_bandwidth_bps;
  const int p = in.num_ps;
  const int w = in.num_workers;

  if (in.placement == nullptr || in.placement->empty()) {
    // All communication crosses the network. PS side: the busiest PS serves
    // w' concurrent workers, each exchanging its shard. Worker side: each
    // worker exchanges the full model through its NIC.
    const double ps_side = max_ps_bytes * static_cast<double>(w) * concurrency_factor / bw;
    const double worker_side = total_bytes / bw;
    return 2.0 * std::max(ps_side, worker_side);
  }

  // Servers without any task of this job contribute nothing to the max, so
  // only the occupied ones need visiting.
  double worst = 0.0;
  in.placement->ForEachUsed([&](size_t /*k*/, int w_k, int p_k) {
    if (p_k > 0) {
      // The busiest PS (bytes-wise) could sit on any server; being
      // conservative, charge the max shard size to PSes on every server.
      const double remote_workers = static_cast<double>(w - w_k);
      const double ps_time =
          max_ps_bytes * remote_workers * concurrency_factor / bw;
      worst = std::max(worst, ps_time);
    }
    if (w_k > 0 && p > 0) {
      const double remote_shard_bytes =
          total_bytes * static_cast<double>(p - p_k) / static_cast<double>(p);
      const double worker_time = remote_shard_bytes / bw;
      worst = std::max(worst, worker_time);
    }
  });
  return 2.0 * worst;
}

// Ring all-reduce transfer time: each of the w workers sends and receives
// (w-1)/w of the model across the 2(w-1) phases of the ring, gated by the
// slowest link. A single-worker ring — or one whose workers share one server
// — never touches the network.
double AllReduceTransferTime(const StepTimeInputs& in, const CommConfig& config) {
  const int w = in.num_workers;
  if (w <= 1) {
    return 0.0;
  }
  if (in.placement != nullptr && !in.placement->empty()) {
    int servers_used = 0;
    in.placement->ForEachUsed([&](size_t /*k*/, int w_k, int /*p_k*/) {
      if (w_k > 0) {
        ++servers_used;
      }
    });
    if (servers_used <= 1) {
      return 0.0;
    }
  }
  const double bw =
      in.net_bw_bps > 0.0 ? in.net_bw_bps : config.container_bandwidth_bps;
  const double total_bytes = static_cast<double>(in.model->ParamBytes());
  return 2.0 * static_cast<double>(w - 1) / static_cast<double>(w) *
         total_bytes / bw;
}

}  // namespace

StepTimeBreakdown ComputeStepTime(const StepTimeInputs& in, const CommConfig& config) {
  OPTIMUS_CHECK(in.model != nullptr);
  const bool allreduce = in.comm == CommMode::kAllReduce;
  if (allreduce) {
    OPTIMUS_CHECK_EQ(in.num_ps, 0) << "all-reduce jobs run no PS tasks";
    OPTIMUS_CHECK(in.mode == TrainingMode::kSync)
        << "all-reduce jobs are synchronous";
  } else {
    OPTIMUS_CHECK_GE(in.num_ps, 1);
  }
  OPTIMUS_CHECK_GE(in.num_workers, 1);
  OPTIMUS_CHECK_GT(in.slowest_worker_factor, 0.0);
  if (in.placement != nullptr && !in.placement->empty()) {
    OPTIMUS_CHECK_EQ(in.placement->TotalWorkers(), in.num_workers);
    OPTIMUS_CHECK_EQ(in.placement->TotalPs(), in.num_ps);
  }

  const ModelSpec& model = *in.model;
  const int p = in.num_ps;
  const int w = in.num_workers;

  if (allreduce) {
    // Ring all-reduce: compute terms as in Eqn 2, transfer over the ring,
    // no PS update or PS-side overhead terms.
    const int global = in.global_batch > 0 ? in.global_batch : model.default_sync_batch;
    const double m = static_cast<double>(global) / static_cast<double>(w);
    const double m_eff = std::max(m, model.compute.min_effective_batch);
    StepTimeBreakdown out;
    out.forward_s =
        m_eff * model.compute.fwd_time_per_example_s / in.slowest_worker_factor;
    out.backward_s = model.compute.back_time_s / in.slowest_worker_factor;
    out.transfer_s = AllReduceTransferTime(in, config);
    out.update_s = 0.0;
    out.overhead_s = model.compute.overhead_per_worker_s * static_cast<double>(w);
    out.total_s = out.forward_s + out.backward_s + out.transfer_s + out.overhead_s;
    return out;
  }

  // Per-worker mini-batch size.
  double m = 0.0;
  if (in.mode == TrainingMode::kSync) {
    const int global = in.global_batch > 0 ? in.global_batch : model.default_sync_batch;
    m = static_cast<double>(global) / static_cast<double>(w);
  } else {
    m = static_cast<double>(in.async_minibatch > 0 ? in.async_minibatch
                                                   : model.default_async_minibatch);
  }

  const PsLoadMetrics load =
      in.load_valid ? in.load
                    : BalancedLoadMetrics(model.TotalParams(), p, model.num_param_blocks);
  const double max_frac = std::max(load.max_param_fraction, 1.0 / static_cast<double>(p));
  const double max_ps_bytes = static_cast<double>(model.ParamBytes()) * max_frac;

  // Async workers only partially overlap at a PS; sync workers all collide.
  const double concurrency =
      in.mode == TrainingMode::kSync ? 1.0 : config.async_concurrency;

  StepTimeBreakdown out;
  const double m_eff = std::max(m, model.compute.min_effective_batch);
  out.forward_s =
      m_eff * model.compute.fwd_time_per_example_s / in.slowest_worker_factor;
  out.backward_s = model.compute.back_time_s / in.slowest_worker_factor;
  out.transfer_s = CrossServerTransferTime(in, config, max_ps_bytes, concurrency);

  // The busiest PS applies its shard's update once per (concurrent) worker
  // gradient arrival: T_update * max_frac * w'.
  const double w_prime = std::max(1.0, concurrency * static_cast<double>(w));
  out.update_s = model.compute.update_time_full_s * max_frac * w_prime;

  // Connection/control overhead grows with task counts; block slicing adds
  // requests, inflating the PS-side constant proportionally.
  const double base_requests = std::max(1, model.num_param_blocks);
  const double request_factor =
      std::max(1.0, static_cast<double>(load.total_requests) / base_requests);
  out.overhead_s = model.compute.overhead_per_worker_s * static_cast<double>(w) +
                   model.compute.overhead_per_ps_s * static_cast<double>(p) *
                       request_factor;

  out.total_s =
      out.forward_s + out.backward_s + out.transfer_s + out.update_s + out.overhead_s;
  return out;
}

double TrainingSpeed(const StepTimeInputs& in, const CommConfig& config) {
  const StepTimeBreakdown breakdown = ComputeStepTime(in, config);
  OPTIMUS_CHECK_GT(breakdown.total_s, 0.0);
  if (in.mode == TrainingMode::kSync) {
    return 1.0 / breakdown.total_s;
  }
  return static_cast<double>(in.num_workers) / breakdown.total_s;
}

}  // namespace optimus
