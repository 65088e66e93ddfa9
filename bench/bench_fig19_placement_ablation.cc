// Fig 19: effectiveness of the task placement scheme — replace only the
// placement algorithm with the load-balancing (DRF/Kubernetes default) or
// Tetris packing scheme while keeping Optimus's resource allocation.

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 19", "Task-placement ablation (allocation fixed to Optimus)",
      "Optimus's packed placement beats load-balancing by ~15% and Tetris "
      "packing by ~10% on JCT in the paper; the ordering must hold");

  const PlacementPolicy placements[] = {PlacementPolicy::kOptimusPack,
                                        PlacementPolicy::kLoadBalance,
                                        PlacementPolicy::kTetrisPack};
  std::vector<ScenarioSpec> scenarios;
  for (PlacementPolicy place : placements) {
    ScenarioSpec scenario = TestbedScenario();
    scenario.policies = {"optimus"};
    scenario.sim.ablation.placement = place;  // the only knob that changes
    scenarios.push_back(scenario);
  }
  const std::vector<SweepCellResult> cells = RunSweep(scenarios).cells;

  TablePrinter table({"placement", "avg JCT (s)", "JCT (norm)", "makespan (s)",
                      "makespan (norm)"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& r = cells[i];
    table.AddRow({PlacementPolicyName(placements[i]),
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / cells[0].avg_jct_mean, 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean / cells[0].makespan_mean, 2)});
  }
  table.Print(std::cout);
  return 0;
}
