// Extension (§2.3): the paper motivates job-size awareness with the FIFO
// head-of-line problem ("a long job may block a series of short jobs"). This
// bench adds a FIFO scheduler to the Fig-11 comparison to quantify that
// effect alongside DRF and Tetris.

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/cluster/server.h"
#include "src/sched/scheduler_registry.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: FIFO baseline",
      "All four schedulers on the testbed workload (adds FIFO to Fig 11)",
      "Optimus remains best on both metrics. FIFO's head-of-line blocking "
      "(\u00a72.3) shows up in the JCT tail: short jobs occasionally queue "
      "behind a long head job, inflating the p90 JCT relative to its mean");

  TablePrinter table({"scheduler", "avg JCT (s)", "JCT (norm)", "p90 JCT (s)",
                      "makespan (s)", "makespan (norm)"});
  double base_jct = 0.0;
  double base_mk = 0.0;
  for (const char* policy : {"optimus", "drf", "tetris", "fifo"}) {
    ExperimentConfig config;
    ApplyTestbedConditions(&config.sim);
    ApplySchedulerPolicy(policy, &config.sim);
    config.workload.num_jobs = 9;
    config.workload.target_steps_per_epoch = 80;
    config.repeats = 5;
    ExperimentResult r = RunExperiment(config, [] { return BuildTestbed(); });
    if (base_jct == 0.0) {
      base_jct = r.avg_jct_mean;
      base_mk = r.makespan_mean;
    }
    std::vector<double> all_jcts;
    for (const RunMetrics& m : r.runs) {
      all_jcts.insert(all_jcts.end(), m.jcts.begin(), m.jcts.end());
    }
    const std::string name = FindPolicy(policy)->display_name;
    table.AddRow({name, TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / base_jct, 2),
                  TablePrinter::FormatDouble(Percentile(all_jcts, 90.0), 0),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean / base_mk, 2)});
  }
  table.Print(std::cout);
  return 0;
}
