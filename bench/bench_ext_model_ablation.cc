// Extension: ablate the performance model itself. Optimus's scheduling
// quality rests on its fitted Eqn-3/4 speed functions; replace them with the
// naive "linear speedup in workers" assumption and measure the damage. This
// isolates the value of §3.2's modeling beyond what Figs 18/19 (which ablate
// the decision algorithms, not the model) can show.

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: speed-model ablation",
      "Fitted Eqn-3/4 speed model vs naive linear-speedup assumption",
      "the naive model over-allocates workers far past their real knee "
      "(linear extrapolation never sees diminishing returns), wasting slots "
      "and slowing every job: higher JCT and makespan");

  TablePrinter table({"speed model", "avg JCT (s)", "JCT (norm)", "makespan (s)",
                      "makespan (norm)"});
  double base_jct = 0.0;
  double base_mk = 0.0;
  for (bool naive : {false, true}) {
    ExperimentConfig config;
    ApplySchedulerPolicy("optimus", &config.sim);
    ApplyTestbedConditions(&config.sim);
    config.sim.naive_linear_speed = naive;
    config.workload.num_jobs = 12;
    config.workload.arrival_window_s = 6000.0;
    config.workload.target_steps_per_epoch = 80;
    config.repeats = 8;
    ExperimentResult r = RunExperiment(config, [] { return BuildTestbed(); });
    if (!naive) {
      base_jct = r.avg_jct_mean;
      base_mk = r.makespan_mean;
    }
    table.AddRow({naive ? "naive linear" : "fitted Eqn-3/4",
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / base_jct, 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean / base_mk, 2)});
  }
  table.Print(std::cout);
  return 0;
}
