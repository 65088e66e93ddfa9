#include "src/pserver/event_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "src/common/logging.h"

namespace optimus {

namespace {

// ---------------------------------------------------------------------------
// Fluid-flow network simulator: flows share NICs max-min fairly; timers model
// compute/update phases. Deterministic and event-driven (rates are
// recomputed whenever the flow set changes).
// ---------------------------------------------------------------------------
class FluidSimulator {
 public:
  using Callback = std::function<void()>;

  FluidSimulator(int num_nics, double bandwidth_bps, double local_bps,
                 double min_rate_bps)
      : nic_capacity_(num_nics, bandwidth_bps),
        local_bps_(local_bps),
        min_rate_bps_(min_rate_bps) {}

  double now() const { return now_; }

  void At(double time, Callback cb) {
    OPTIMUS_CHECK_GE(time, now_ - 1e-9);
    timers_.push({std::max(time, now_), next_timer_seq_++, std::move(cb)});
  }

  void After(double delay, Callback cb) { At(now_ + delay, std::move(cb)); }

  // nic < 0 means the endpoint is local to the peer (same server).
  void StartFlow(int src_nic, int dst_nic, double bytes, Callback on_done) {
    if (bytes <= 0.0) {
      After(0.0, std::move(on_done));
      return;
    }
    flows_.push_back({src_nic, dst_nic, bytes, 0.0, std::move(on_done)});
    rates_dirty_ = true;
  }

  // Runs until no timers and no flows remain.
  void Run() {
    while (!timers_.empty() || !flows_.empty()) {
      if (rates_dirty_) {
        RecomputeRates();
        rates_dirty_ = false;
      }

      const double next_timer =
          timers_.empty() ? std::numeric_limits<double>::infinity()
                          : timers_.top().time;
      double next_flow = std::numeric_limits<double>::infinity();
      for (const Flow& f : flows_) {
        OPTIMUS_CHECK_GT(f.rate, 0.0);
        next_flow = std::min(next_flow, now_ + f.bytes / f.rate);
      }

      const double t = std::min(next_timer, next_flow);
      OPTIMUS_CHECK(std::isfinite(t)) << "simulation stalled";
      AdvanceTo(t);

      if (next_flow <= next_timer) {
        // Fire all flows that completed (bytes drained to ~0).
        std::vector<Callback> done;
        for (size_t i = 0; i < flows_.size();) {
          if (flows_[i].bytes <= 1e-6) {
            done.push_back(std::move(flows_[i].on_done));
            flows_[i] = std::move(flows_.back());
            flows_.pop_back();
            rates_dirty_ = true;
          } else {
            ++i;
          }
        }
        for (Callback& cb : done) {
          cb();
        }
      } else {
        Timer timer = timers_.top();
        timers_.pop();
        timer.cb();
        // New flows may have been started by the callback.
      }
    }
  }

 private:
  struct Flow {
    int src_nic;
    int dst_nic;
    double bytes;
    double rate;
    Callback on_done;
  };
  struct Timer {
    double time;
    uint64_t seq;
    Callback cb;
    bool operator>(const Timer& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void AdvanceTo(double t) {
    const double dt = t - now_;
    if (dt > 0.0) {
      for (Flow& f : flows_) {
        f.bytes = std::max(0.0, f.bytes - f.rate * dt);
      }
      now_ = t;
    }
  }

  // Max-min fair rates via progressive filling.
  void RecomputeRates() {
    const size_t n = flows_.size();
    std::vector<bool> frozen(n, false);
    std::vector<double> remaining = nic_capacity_;
    size_t unfrozen = 0;

    for (size_t i = 0; i < n; ++i) {
      if (flows_[i].src_nic < 0 && flows_[i].dst_nic < 0) {
        flows_[i].rate = local_bps_;  // memory-local transfer
        frozen[i] = true;
      } else {
        ++unfrozen;
      }
    }

    while (unfrozen > 0) {
      // Fair share per NIC among its unfrozen flows.
      std::vector<int> count(nic_capacity_.size(), 0);
      for (size_t i = 0; i < n; ++i) {
        if (frozen[i]) {
          continue;
        }
        if (flows_[i].src_nic >= 0) {
          ++count[flows_[i].src_nic];
        }
        if (flows_[i].dst_nic >= 0) {
          ++count[flows_[i].dst_nic];
        }
      }
      double best_share = std::numeric_limits<double>::infinity();
      int bottleneck = -1;
      for (size_t nic = 0; nic < nic_capacity_.size(); ++nic) {
        if (count[nic] > 0) {
          const double share = remaining[nic] / count[nic];
          if (share < best_share) {
            best_share = share;
            bottleneck = static_cast<int>(nic);
          }
        }
      }
      OPTIMUS_CHECK_GE(bottleneck, 0);
      best_share = std::max(best_share, min_rate_bps_);

      // Freeze every unfrozen flow incident to the bottleneck NIC.
      for (size_t i = 0; i < n; ++i) {
        if (frozen[i]) {
          continue;
        }
        if (flows_[i].src_nic == bottleneck || flows_[i].dst_nic == bottleneck) {
          flows_[i].rate = best_share;
          frozen[i] = true;
          --unfrozen;
          if (flows_[i].src_nic >= 0) {
            remaining[flows_[i].src_nic] =
                std::max(0.0, remaining[flows_[i].src_nic] - best_share);
          }
          if (flows_[i].dst_nic >= 0) {
            remaining[flows_[i].dst_nic] =
                std::max(0.0, remaining[flows_[i].dst_nic] - best_share);
          }
        }
      }
    }
  }

  double now_ = 0.0;
  std::vector<double> nic_capacity_;
  double local_bps_;
  double min_rate_bps_;
  std::vector<Flow> flows_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  uint64_t next_timer_seq_ = 0;
  bool rates_dirty_ = false;
};

// Task -> server mapping derived from a JobPlacement (workers first, then PS,
// filling servers in index order); server -1 when no placement is given
// (every pair is then treated as cross-server).
struct TaskLayout {
  std::vector<int> worker_server;
  std::vector<int> ps_server;
};

TaskLayout BuildLayout(const StepTimeInputs& in) {
  TaskLayout layout;
  layout.worker_server.assign(in.num_workers, -1);
  layout.ps_server.assign(in.num_ps, -2);  // distinct from workers by default
  if (in.placement == nullptr || in.placement->empty()) {
    return layout;
  }
  int w = 0;
  int p = 0;
  // Servers in ascending order, workers then PS on each.
  in.placement->ForEachUsed([&](size_t s, int w_k, int p_k) {
    for (int i = 0; i < w_k; ++i) {
      layout.worker_server[w++] = static_cast<int>(s);
    }
    for (int i = 0; i < p_k; ++i) {
      layout.ps_server[p++] = static_cast<int>(s);
    }
  });
  OPTIMUS_CHECK_EQ(w, in.num_workers);
  OPTIMUS_CHECK_EQ(p, in.num_ps);
  return layout;
}

// Per-PS shard fractions: one "hot" PS holds the max fraction from the load
// shape; the rest split the remainder evenly (mirrors comm_model's view).
std::vector<double> ShardFractions(const StepTimeInputs& in) {
  const int p = in.num_ps;
  std::vector<double> frac(p, 1.0 / p);
  if (in.load_valid && p > 1) {
    const double hot = std::clamp(in.load.max_param_fraction, 1.0 / p, 1.0);
    frac.assign(p, (1.0 - hot) / (p - 1));
    frac[0] = hot;
  }
  return frac;
}

struct StepParams {
  double compute_s = 0.0;           // fwd + bwd for a healthy worker
  double overhead_s = 0.0;          // delta*w + delta'*p*request_factor
  double update_full_s = 0.0;       // T_update for the whole model
  std::vector<double> frac;         // shard fraction per PS
  std::vector<double> shard_bytes;  // bytes per PS shard
};

StepParams BuildParams(const StepTimeInputs& in) {
  const ModelSpec& model = *in.model;
  StepParams params;
  double m = 0.0;
  if (in.mode == TrainingMode::kSync) {
    const int global = in.global_batch > 0 ? in.global_batch : model.default_sync_batch;
    m = static_cast<double>(global) / in.num_workers;
  } else {
    m = static_cast<double>(in.async_minibatch > 0 ? in.async_minibatch
                                                   : model.default_async_minibatch);
  }
  const double m_eff = std::max(m, model.compute.min_effective_batch);
  params.compute_s = m_eff * model.compute.fwd_time_per_example_s +
                     model.compute.back_time_s;

  const double base_requests = std::max(1, model.num_param_blocks);
  const double request_factor =
      in.load_valid
          ? std::max(1.0, static_cast<double>(in.load.total_requests) / base_requests)
          : 1.0;
  params.overhead_s = model.compute.overhead_per_worker_s * in.num_workers +
                      model.compute.overhead_per_ps_s * in.num_ps * request_factor;
  params.update_full_s = model.compute.update_time_full_s;
  params.frac = ShardFractions(in);
  params.shard_bytes.resize(params.frac.size());
  for (size_t j = 0; j < params.frac.size(); ++j) {
    params.shard_bytes[j] = static_cast<double>(model.ParamBytes()) * params.frac[j];
  }
  return params;
}

// NIC ids: workers 0..w-1, PS w..w+p-1. Local (same-server) pairs bypass NICs.
struct NicIds {
  int w;
  int worker(int i) const { return i; }
  int ps(int j) const { return w + j; }
};

bool Colocated(const TaskLayout& layout, int worker, int ps) {
  return layout.worker_server[worker] >= 0 &&
         layout.worker_server[worker] == layout.ps_server[ps];
}

EventSimResult RunSync(const StepTimeInputs& in, const CommConfig& config,
                       const EventSimOptions& options) {
  const int w = in.num_workers;
  const int p = in.num_ps;
  const StepParams params = BuildParams(in);
  const TaskLayout layout = BuildLayout(in);
  const NicIds nic{w};

  FluidSimulator sim(w + p, config.container_bandwidth_bps,
                     /*local_bps=*/12.5e9, options.min_rate_bps);

  std::vector<int> ps_arrivals(p, 0);
  std::vector<int> worker_pulls(w, 0);
  std::vector<double> worker_done(w, 0.0);
  std::vector<double> worker_transfer_start(w, 0.0);
  double slowest_done = 0.0;

  // Phase wiring, innermost first.
  auto on_pull_done = [&](int i) {
    if (++worker_pulls[i] == p) {
      worker_done[i] = sim.now();
      slowest_done = std::max(slowest_done, sim.now());
    }
  };
  auto start_pulls = [&](int j) {
    for (int i = 0; i < w; ++i) {
      const bool local = Colocated(layout, i, j);
      sim.StartFlow(local ? -1 : nic.ps(j), local ? -1 : nic.worker(i),
                    params.shard_bytes[j], [&, i] { on_pull_done(i); });
    }
  };
  auto on_push_arrived = [&](int j) {
    if (++ps_arrivals[j] == w) {
      // All gradients collected: apply the shard update for all workers.
      const double update_s = params.update_full_s * params.frac[j] * w;
      sim.After(update_s, [&, j] { start_pulls(j); });
    }
  };
  auto start_pushes = [&](int i) {
    worker_transfer_start[i] = sim.now();
    for (int j = 0; j < p; ++j) {
      const bool local = Colocated(layout, i, j);
      sim.StartFlow(local ? -1 : nic.worker(i), local ? -1 : nic.ps(j),
                    params.shard_bytes[j], [&, j] { on_push_arrived(j); });
    }
  };

  for (int i = 0; i < w; ++i) {
    // The slowest worker computes slower (straggler factor); others are
    // healthy.
    const double factor = i == 0 ? in.slowest_worker_factor : 1.0;
    sim.After(params.compute_s / factor, [&, i] { start_pushes(i); });
  }
  sim.Run();

  EventSimResult result;
  result.step_time_s = slowest_done + params.overhead_s;
  result.speed = result.step_time_s > 0.0 ? 1.0 / result.step_time_s : 0.0;
  // Transfer time of the slowest worker: wall time from its push start to its
  // completion, minus the hot shard's update it waited on.
  double max_transfer = 0.0;
  for (int i = 0; i < w; ++i) {
    const double update_hot = params.update_full_s * params.frac[0] * w;
    max_transfer = std::max(
        max_transfer, worker_done[i] - worker_transfer_start[i] - update_hot);
  }
  result.transfer_time_s = std::max(0.0, max_transfer);
  return result;
}

EventSimResult RunAsync(const StepTimeInputs& in, const CommConfig& config,
                        const EventSimOptions& options) {
  const int w = in.num_workers;
  const int p = in.num_ps;
  const StepParams params = BuildParams(in);
  const TaskLayout layout = BuildLayout(in);
  const NicIds nic{w};

  FluidSimulator sim(w + p, config.container_bandwidth_bps,
                     /*local_bps=*/12.5e9, options.min_rate_bps);

  const int steps = std::max(1, options.async_steps_per_worker);
  std::vector<int> steps_left(w, steps);
  std::vector<int> pulls_pending(w, 0);
  std::vector<double> ps_busy_until(p, 0.0);
  double last_completion = 0.0;

  // Forward declaration via std::function for the per-worker loop.
  std::function<void(int)> begin_step;

  auto on_pull_done = [&](int i) {
    if (--pulls_pending[i] == 0) {
      last_completion = std::max(last_completion, sim.now());
      if (--steps_left[i] > 0) {
        begin_step(i);
      }
    }
  };
  auto on_push_arrived = [&](int i, int j) {
    // FIFO update service at the PS, then send fresh parameters back.
    const double start = std::max(sim.now(), ps_busy_until[j]);
    const double done = start + params.update_full_s * params.frac[j];
    ps_busy_until[j] = done;
    sim.At(done, [&, i, j] {
      const bool local = Colocated(layout, i, j);
      sim.StartFlow(local ? -1 : nic.ps(j), local ? -1 : nic.worker(i),
                    params.shard_bytes[j], [&, i] { on_pull_done(i); });
    });
  };
  begin_step = [&](int i) {
    const double factor = i == 0 ? in.slowest_worker_factor : 1.0;
    sim.After((params.compute_s + params.overhead_s) / factor, [&, i] {
      pulls_pending[i] = p;
      for (int j = 0; j < p; ++j) {
        const bool local = Colocated(layout, i, j);
        sim.StartFlow(local ? -1 : nic.worker(i), local ? -1 : nic.ps(j),
                      params.shard_bytes[j], [&, i, j] { on_push_arrived(i, j); });
      }
    });
  };

  for (int i = 0; i < w; ++i) {
    begin_step(i);
  }
  sim.Run();

  EventSimResult result;
  const double total_worker_steps = static_cast<double>(w) * steps;
  result.step_time_s = last_completion / steps;  // per-worker average
  result.speed = last_completion > 0.0 ? total_worker_steps / last_completion : 0.0;
  result.transfer_time_s = 0.0;  // not tracked for async
  return result;
}

}  // namespace

EventSimResult SimulateStep(const StepTimeInputs& in, const CommConfig& config,
                            const EventSimOptions& options) {
  OPTIMUS_CHECK(in.model != nullptr);
  OPTIMUS_CHECK_GE(in.num_workers, 1);
  OPTIMUS_CHECK_GE(in.num_ps, 1);
  if (in.placement != nullptr && !in.placement->empty()) {
    OPTIMUS_CHECK_EQ(in.placement->TotalWorkers(), in.num_workers);
    OPTIMUS_CHECK_EQ(in.placement->TotalPs(), in.num_ps);
  }
  return in.mode == TrainingMode::kSync ? RunSync(in, config, options)
                                        : RunAsync(in, config, options);
}

}  // namespace optimus
