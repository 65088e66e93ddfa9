// Quickstart: schedule a small deep-learning workload with Optimus.
//
// Builds the paper's 13-server testbed, generates the 9-job Table-1 workload,
// runs the Optimus scheduler (marginal-gain allocation + packed placement +
// PAA load balancing), and prints per-job outcomes and cluster-level metrics.
//
//   ./examples/quickstart [seed]

#include <cstdlib>
#include <iostream>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

int main(int argc, char** argv) {
  using namespace optimus;

  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // 1. A workload: the nine Table-1 jobs arriving over ~3.3 hours.
  WorkloadConfig workload;
  workload.num_jobs = 9;
  Rng rng(seed);
  std::vector<JobSpec> jobs = GenerateWorkload(workload, &rng);

  std::cout << "Submitting " << jobs.size() << " jobs:\n";
  TablePrinter submit({"job", "model", "mode", "delta", "arrival(s)"});
  for (const JobSpec& j : jobs) {
    submit.AddRow({std::to_string(j.id), j.model->name, TrainingModeName(j.mode),
                   TablePrinter::FormatDouble(j.convergence_delta, 3),
                   TablePrinter::FormatDouble(j.arrival_time_s, 0)});
  }
  submit.Print(std::cout);

  // 2. The Optimus scheduler on the paper's testbed.
  SimulatorConfig config;
  config.placement = PlacementPolicy::kOptimusPack;
  config.use_paa = true;
  config.young_job_priority_factor = 0.95;
  config.seed = seed;

  Simulator sim(config, BuildTestbed(), jobs);
  RunMetrics metrics = sim.Run();

  // 3. Outcomes.
  std::cout << "\nPer-job results:\n";
  TablePrinter results({"job", "model", "state", "epochs", "p", "w", "JCT(s)",
                        "scalings", "stall(s)"});
  for (const JobSpec& j : jobs) {
    const JobSnapshot job = sim.job(j.id);
    results.AddRow({std::to_string(j.id), j.model->name, JobStateName(job.state),
                    TablePrinter::FormatDouble(job.epochs_done, 1),
                    std::to_string(job.num_ps), std::to_string(job.num_workers),
                    job.state == JobState::kCompleted
                        ? TablePrinter::FormatDouble(job.jct_s, 0)
                        : "-",
                    std::to_string(job.num_scalings),
                    TablePrinter::FormatDouble(job.total_stall_s, 0)});
  }
  results.Print(std::cout);

  std::cout << "\nCluster metrics:\n"
            << "  completed jobs:    " << metrics.completed_jobs << "/"
            << metrics.total_jobs << "\n"
            << "  average JCT:       " << metrics.avg_jct_s << " s\n"
            << "  makespan:          " << metrics.makespan_s << " s\n"
            << "  scaling overhead:  " << metrics.scaling_overhead_fraction * 100.0
            << " %\n"
            << "  scaling events:    " << metrics.total_scalings << "\n";
  return metrics.completed_jobs == metrics.total_jobs ? 0 : 1;
}
