// Cluster-operator scenario: compare Optimus against DRF and Tetris on a
// larger simulated cluster with a sustained Poisson job stream.
//
//   ./examples/scheduler_comparison [num_jobs] [num_servers]

#include <cstdlib>
#include <iostream>

#include "src/common/table.h"
#include "src/workload/sweep.h"

int main(int argc, char** argv) {
  using namespace optimus;

  const int num_jobs = argc > 1 ? std::atoi(argv[1]) : 24;
  const int num_servers = argc > 2 ? std::atoi(argv[2]) : 30;

  std::cout << "Scheduling " << num_jobs << " DL jobs (Poisson arrivals) on "
            << num_servers << " servers (16 CPU / 80 GB each)\n";

  // One scenario, three policies: every policy replays the same jobs per
  // repeat, and the sweep aggregates the repeats of each policy.
  ScenarioSpec scenario;
  scenario.name = "scheduler_comparison";
  scenario.policies = {"optimus", "drf", "tetris"};
  scenario.workload.num_jobs = num_jobs;
  scenario.workload.arrivals.kind = ArrivalSpec::Kind::kPoisson;
  scenario.workload.arrivals.rate_per_interval = 2.0;
  scenario.workload.sizes.target_steps_per_epoch = 60;
  scenario.cluster.testbed = false;
  scenario.cluster.classes = {{"uniform", num_servers, Resources(16, 80, 0, 1)}};
  scenario.sim.straggler.injection_prob_per_interval = 0.12;

  TablePrinter table({"scheduler", "avg JCT (s)", "makespan (s)", "JCT (norm)",
                      "makespan (norm)", "completed"});
  const SweepResult result = RunSweep({scenario});
  for (const SweepCellResult& r : result.cells) {
    table.AddRow({r.display_name,
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.jct_vs_baseline, 2),
                  TablePrinter::FormatDouble(r.makespan_vs_baseline, 2),
                  TablePrinter::FormatDouble(r.completed_fraction * 100.0, 0) + "%"});
  }
  table.Print(std::cout);
  return 0;
}
