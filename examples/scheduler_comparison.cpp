// Cluster-operator scenario: compare Optimus against DRF and Tetris on a
// larger simulated cluster with a sustained Poisson job stream.
//
//   ./examples/scheduler_comparison [num_jobs] [num_servers]

#include <cstdlib>
#include <iostream>

#include "src/cluster/server.h"
#include "src/common/table.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/experiment.h"

int main(int argc, char** argv) {
  using namespace optimus;

  const int num_jobs = argc > 1 ? std::atoi(argv[1]) : 24;
  const int num_servers = argc > 2 ? std::atoi(argv[2]) : 30;

  std::cout << "Scheduling " << num_jobs << " DL jobs (Poisson arrivals) on "
            << num_servers << " servers (16 CPU / 80 GB each)\n";

  ExperimentConfig base;
  ApplyTestbedConditions(&base.sim);
  base.workload.num_jobs = num_jobs;
  base.workload.arrivals = ArrivalSpec::Kind::kPoisson;
  base.workload.arrivals_per_interval = 2.0;
  base.workload.target_steps_per_epoch = 60;
  base.repeats = 3;

  TablePrinter table({"scheduler", "avg JCT (s)", "makespan (s)", "JCT (norm)",
                      "makespan (norm)", "completed"});
  double base_jct = 0.0;
  double base_mk = 0.0;
  for (const char* policy : {"optimus", "drf", "tetris"}) {
    ExperimentConfig config = base;
    config.sim.policy = policy;
    ExperimentResult r = RunExperiment(config, [num_servers] {
      return BuildUniformCluster(num_servers, Resources(16, 80, 0, 1));
    });
    if (base_jct == 0.0) {
      base_jct = r.avg_jct_mean;
      base_mk = r.makespan_mean;
    }
    table.AddRow({FindPolicy(policy)->display_name,
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / base_jct, 2),
                  TablePrinter::FormatDouble(r.makespan_mean / base_mk, 2),
                  TablePrinter::FormatDouble(r.completed_fraction * 100.0, 0) + "%"});
  }
  table.Print(std::cout);
  return 0;
}
