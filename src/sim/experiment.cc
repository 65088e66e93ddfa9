#include "src/sim/experiment.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/threadpool.h"

namespace optimus {

ExperimentResult RunExperiment(const ExperimentConfig& config,
                               const std::function<std::vector<Server>()>& cluster) {
  OPTIMUS_CHECK_GE(config.repeats, 1);
  ExperimentResult result;
  result.label = config.label;

  // Each repeat is fully independent: it derives everything from its own
  // seed, so the repeats can run on any number of threads. Results land in
  // index-owned slots and are aggregated in repeat order below, which keeps
  // every aggregate bitwise identical to the serial path.
  std::vector<RunMetrics> runs(config.repeats);
  const auto run_one = [&](int64_t r) {
    SimulatorConfig sim = config.sim;
    sim.seed = config.base_seed + static_cast<uint64_t>(r);
    Rng workload_rng(sim.seed ^ 0x5eedULL);
    std::vector<JobSpec> specs = GenerateWorkload(config.workload, &workload_rng);
    Simulator simulator(sim, cluster(), std::move(specs));
    runs[r] = simulator.Run();
  };
  const int threads = config.threads > 0 ? config.threads : DefaultThreadCount();
  ThreadPool pool(std::min(threads, config.repeats));
  pool.ParallelFor(config.repeats, run_one);

  std::vector<const RunMetrics*> in_order;
  for (const RunMetrics& metrics : runs) {
    in_order.push_back(&metrics);
  }
  AggregateRepeats(in_order, &result);
  result.runs = std::move(runs);
  return result;
}

void AggregateRepeats(const std::vector<const RunMetrics*>& runs, RepeatAggregate* out) {
  std::vector<double> jcts;
  std::vector<double> makespans;
  std::vector<double> overheads;
  std::vector<double> task_failures;
  std::vector<double> evictions;
  int64_t violations = 0;
  double completed = 0.0;
  double total = 0.0;
  for (const RunMetrics* m : runs) {
    jcts.push_back(m->avg_jct_s);
    makespans.push_back(m->makespan_s);
    overheads.push_back(m->scaling_overhead_fraction);
    task_failures.push_back(static_cast<double>(m->task_failures));
    evictions.push_back(static_cast<double>(m->job_evictions));
    violations += m->audit_violations;
    completed += m->completed_jobs;
    total += m->total_jobs;
  }
  out->avg_jct_mean = Mean(jcts);
  out->avg_jct_stddev = StdDev(jcts);
  out->makespan_mean = Mean(makespans);
  out->makespan_stddev = StdDev(makespans);
  out->scaling_overhead_mean = Mean(overheads);
  out->task_failures_mean = Mean(task_failures);
  out->job_evictions_mean = Mean(evictions);
  out->audit_violations_total = violations;
  out->completed_fraction = total > 0.0 ? completed / total : 0.0;
}

double NormalizedTo(double value, double baseline) {
  if (baseline <= 0.0) {
    return 0.0;
  }
  return value / baseline;
}

void ApplyTestbedConditions(SimulatorConfig* config) {
  OPTIMUS_CHECK(config != nullptr);
  config->straggler.injection_prob_per_interval = 0.12;
}

}  // namespace optimus
