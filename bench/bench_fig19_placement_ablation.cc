// Fig 19: effectiveness of the task placement scheme — replace only the
// placement algorithm with the load-balancing (DRF/Kubernetes default) or
// Tetris packing scheme while keeping Optimus's resource allocation.

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 19", "Task-placement ablation (allocation fixed to Optimus)",
      "Optimus's packed placement beats load-balancing by ~15% and Tetris "
      "packing by ~10% on JCT in the paper; the ordering must hold");

  TablePrinter table({"placement", "avg JCT (s)", "JCT (norm)", "makespan (s)",
                      "makespan (norm)"});
  double base_jct = 0.0;
  double base_mk = 0.0;
  for (PlacementPolicy place :
       {PlacementPolicy::kOptimusPack, PlacementPolicy::kLoadBalance,
        PlacementPolicy::kTetrisPack}) {
    ExperimentConfig config;
    ApplyTestbedConditions(&config.sim);
    config.sim.ablation.placement = place;  // the only knob that changes
    config.workload.num_jobs = 9;
    config.workload.target_steps_per_epoch = 80;
    config.repeats = 5;
    ExperimentResult r = RunExperiment(config, [] { return BuildTestbed(); });
    if (base_jct == 0.0) {
      base_jct = r.avg_jct_mean;
      base_mk = r.makespan_mean;
    }
    table.AddRow({PlacementPolicyName(place),
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / base_jct, 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean / base_mk, 2)});
  }
  table.Print(std::cout);
  return 0;
}
