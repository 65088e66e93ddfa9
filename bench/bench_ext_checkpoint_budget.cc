// Extension (§7 "Scaling overhead"): sweep the per-job checkpoint budget —
// the maximum number of elastic rescalings a job may perform — and measure
// the JCT / scaling-overhead trade-off.

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: checkpoint budget",
      "JCT vs per-job rescaling budget (§7 'Scaling overhead')",
      "a small budget forfeits elasticity (higher JCT): once a job spends its "
      "budget it freezes at whatever allocation it had, often one chosen from "
      "early noisy estimates. An unlimited budget maximizes elasticity at a "
      "small checkpoint-overhead cost.");

  TablePrinter table({"max rescalings/job", "avg JCT (s)", "JCT (norm)",
                      "makespan (s)", "scaling overhead %"});
  double base_jct = 0.0;
  for (int budget : {0, 1, 2, 4, 8}) {  // 0 = unlimited
    ExperimentConfig config;
    ApplyTestbedConditions(&config.sim);
    config.sim.checkpoint.max_scalings_per_job = budget;
    config.workload.num_jobs = 12;
    config.workload.arrival_window_s = 6000.0;
    config.workload.target_steps_per_epoch = 80;
    config.repeats = 10;
    ExperimentResult r = RunExperiment(config, [] { return BuildTestbed(); });
    if (budget == 0) {
      base_jct = r.avg_jct_mean;
    }
    table.AddRow({budget == 0 ? "unlimited" : std::to_string(budget),
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / base_jct, 3),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.scaling_overhead_mean * 100.0, 2)});
  }
  table.Print(std::cout);
  return 0;
}
