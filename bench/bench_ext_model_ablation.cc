// Extension: ablate the performance model itself. Optimus's scheduling
// quality rests on its fitted Eqn-3/4 speed functions; replace them with the
// naive "linear speedup in workers" assumption and measure the damage. This
// isolates the value of §3.2's modeling beyond what Figs 18/19 (which ablate
// the decision algorithms, not the model) can show.

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: speed-model ablation",
      "Fitted Eqn-3/4 speed model vs naive linear-speedup assumption",
      "the naive model over-allocates workers far past their real knee "
      "(linear extrapolation never sees diminishing returns), wasting slots "
      "and slowing every job: higher JCT and makespan");

  std::vector<ScenarioSpec> scenarios;
  for (bool naive : {false, true}) {
    ScenarioSpec scenario = TestbedScenario();
    scenario.policies = {"optimus"};
    scenario.repeats = 8;
    scenario.workload.num_jobs = 12;
    scenario.workload.arrivals.window_s = 6000.0;
    scenario.sim.naive_linear_speed = naive;
    scenarios.push_back(scenario);
  }
  const std::vector<SweepCellResult> cells = RunSweep(scenarios).cells;

  TablePrinter table({"speed model", "avg JCT (s)", "JCT (norm)", "makespan (s)",
                      "makespan (norm)"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& r = cells[i];
    table.AddRow({i == 0 ? "fitted Eqn-3/4" : "naive linear",
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / cells[0].avg_jct_mean, 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean / cells[0].makespan_mean, 2)});
  }
  table.Print(std::cout);
  return 0;
}
