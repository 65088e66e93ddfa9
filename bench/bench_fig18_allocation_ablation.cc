// Fig 18: effectiveness of the marginal-gain resource allocation — replace
// only the allocation algorithm with DRF's or Tetris's while keeping
// Optimus's task placement (and the rest of the system).

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 18", "Resource-allocation ablation (placement fixed to Optimus)",
      "Optimus's marginal-gain allocation beats DRF-style and Tetris-style "
      "allocation on both JCT and makespan (paper: DRF-alloc 1.62x JCT)");

  TablePrinter table({"allocation", "avg JCT (s)", "JCT (norm)", "makespan (s)",
                      "makespan (norm)"});
  double base_jct = 0.0;
  double base_mk = 0.0;
  for (const char* allocation : {"optimus", "drf", "tetris"}) {
    ExperimentConfig config;
    ApplySchedulerPolicy("optimus", &config.sim);
    ApplyTestbedConditions(&config.sim);
    config.sim.policy = allocation;  // the only knob that changes
    config.workload.num_jobs = 9;
    config.workload.target_steps_per_epoch = 80;
    config.repeats = 5;
    ExperimentResult r = RunExperiment(config, [] { return BuildTestbed(); });
    if (base_jct == 0.0) {
      base_jct = r.avg_jct_mean;
      base_mk = r.makespan_mean;
    }
    table.AddRow({allocation,
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / base_jct, 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean / base_mk, 2)});
  }
  table.Print(std::cout);
  return 0;
}
