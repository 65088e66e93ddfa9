// Deterministic fault injection for the cluster simulator.
//
// The paper's robustness machinery (§5.2 straggler replacement, §5.4
// checkpoint-based elastic scaling) assumes failures happen; this module makes
// them happen on schedule. A FaultPlan scripts server crashes/recoveries
// (including correlated rack-style multi-server outages) and transient
// cluster-wide slowdown bursts; a per-interval task-failure probability adds
// unscripted container deaths. All randomness flows through split RNG streams
// owned by the affected job, so a faulted run is bitwise reproducible for any
// --threads value. See docs/FAULTS.md for the plan grammar and semantics.

#ifndef SRC_SIM_FAULT_INJECTOR_H_
#define SRC_SIM_FAULT_INJECTOR_H_

#include <string>
#include <vector>

namespace optimus {

// One scripted outage: the listed servers go down at start_s and come back at
// recover_s (infinity = never). Overlapping outages compose: a server is up
// only when no active outage covers it.
struct ServerOutage {
  double start_s = 0.0;
  double recover_s = 0.0;  // > start_s, or infinity for a permanent crash
  std::vector<int> servers;
};

// A transient cluster-wide slowdown: while active, every running job trains
// at `factor` times its normal speed (resource contention, network brownout).
struct SlowdownBurst {
  double start_s = 0.0;
  double end_s = 0.0;
  double factor = 1.0;  // in (0, 1]
};

struct FaultPlan {
  std::vector<ServerOutage> outages;
  std::vector<SlowdownBurst> slowdowns;

  bool empty() const { return outages.empty() && slowdowns.empty(); }
};

struct FaultConfig {
  FaultPlan plan;
  // Probability, per task and per scheduling interval, that the task's
  // container dies. A dead task forces a checkpoint-restore of the whole job
  // (progress past the last checkpoint is lost) but keeps its placement.
  double task_failure_prob = 0.0;
  // Periodic durable checkpoints (0 = checkpoint only on scaling events,
  // which is when Optimus saves the model anyway).
  double checkpoint_period_s = 0.0;
  // Relaunch-storm cap: after this many consecutive evictions a job backs
  // off for backoff_base_s, doubling per further eviction up to a fixed 2 h
  // (kBackoffMaxS in src/sim/simulator.cc).
  int evictions_before_backoff = 2;
  double backoff_base_s = 600.0;

  bool enabled() const { return !plan.empty() || task_failure_prob > 0.0; }
};

// Parses a fault-plan spec: semicolon/newline-separated events of the form
//   crash@T:server=S[,recover=T2]
//   rack@T:servers=A-B[,recover=T2]
//   slow@T:factor=F,duration=D
// A spec starting with '@' names a file with one event per line ('#' starts a
// comment). Returns false and sets *error on malformed input.
bool ParseFaultPlan(const std::string& spec, FaultPlan* plan, std::string* error);

// Replays a FaultPlan against simulated time. The injector is advanced once
// per scheduling interval (serially, by the simulator), so its state never
// depends on thread count.
class FaultInjector {
 public:
  // Plan entries naming servers outside [0, num_servers) are ignored, so one
  // plan can be reused across cluster sizes.
  FaultInjector(const FaultConfig& config, int num_servers);

  struct IntervalFaults {
    std::vector<int> crashed;    // servers that went down since the last call
    std::vector<int> recovered;  // servers that came back up
    double slow_factor = 1.0;    // cluster-wide speed factor for this interval
  };

  // Advances scripted events up to and including `now_s` and reports the
  // transitions. Must be called with non-decreasing times.
  IntervalFaults Advance(double now_s);

  bool server_up(int server) const;
  int servers_down() const;

  // P[at least one of `num_tasks` tasks fails this interval].
  double JobFailureProbability(int num_tasks) const;

  const FaultConfig& config() const { return config_; }

 private:
  struct Transition {
    double time_s;
    int server;
    int delta;  // +1 down, -1 up
  };

  FaultConfig config_;
  std::vector<Transition> transitions_;  // sorted by (time, server, delta)
  size_t cursor_ = 0;
  std::vector<int> down_count_;  // active outages covering each server
};

}  // namespace optimus

#endif  // SRC_SIM_FAULT_INJECTOR_H_
