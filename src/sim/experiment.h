// Experiment harness: repeated simulation runs with aggregation (§6.1 runs
// every experiment 3 times and reports averages).

#ifndef SRC_SIM_EXPERIMENT_H_
#define SRC_SIM_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "src/cluster/server.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace optimus {

// What one cell of repeated runs reports: RunExperiment's result and each
// optimus_sweep cell (src/workload/sweep.h).
struct RepeatAggregate {
  double avg_jct_mean = 0.0;
  double avg_jct_stddev = 0.0;
  double makespan_mean = 0.0;
  double makespan_stddev = 0.0;
  double scaling_overhead_mean = 0.0;
  // Completed jobs over all jobs, summed across the repeats.
  double completed_fraction = 1.0;
  // Fault-injection aggregates (per-run means; 0 without faults) and the
  // total invariant-audit violations across all repeats (must stay 0).
  double task_failures_mean = 0.0;
  double job_evictions_mean = 0.0;
  int64_t audit_violations_total = 0;
};

// Aggregates `runs`, given in repeat order, into `out`.
void AggregateRepeats(const std::vector<const RunMetrics*>& runs, RepeatAggregate* out);

struct ExperimentResult : RepeatAggregate {
  std::string label;
  std::vector<RunMetrics> runs;
};

struct ExperimentConfig {
  SimulatorConfig sim;
  WorkloadConfig workload;
  int repeats = 3;
  uint64_t base_seed = 42;
  std::string label;
  // Worker threads for the repeats (each repeat is an independent simulation
  // with its own seed). Every metric is bitwise identical for any thread
  // count; see src/common/threadpool.h for the determinism contract. The
  // default honors the OPTIMUS_THREADS environment variable (1 = serial).
  int threads = 0;  // 0 = DefaultThreadCount()
};

// Runs `repeats` simulations on the given cluster builder (called per run so
// servers start fresh; it must be safe to call from several threads when
// config.threads > 1) with seeds base_seed, base_seed+1, ... Results are
// aggregated in repeat order regardless of completion order.
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               const std::function<std::vector<Server>()>& cluster);

// Convenience: normalizes a metric against a baseline result (baseline = 1.0).
double NormalizedTo(double value, double baseline);

// The §6.1 testbed environment knobs shared by the comparison benches:
// straggler injection that Optimus handles and the baselines ride out.
void ApplyTestbedConditions(SimulatorConfig* config);

}  // namespace optimus

#endif  // SRC_SIM_EXPERIMENT_H_
