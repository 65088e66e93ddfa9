// Fig 18: effectiveness of the marginal-gain resource allocation — replace
// only the allocation algorithm with DRF's or Tetris's while keeping
// Optimus's task placement (and the rest of the system).

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 18", "Resource-allocation ablation (placement fixed to Optimus)",
      "Optimus's marginal-gain allocation beats DRF-style and Tetris-style "
      "allocation on both JCT and makespan (paper: DRF-alloc 1.62x JCT)");

  const char* const allocations[] = {"optimus", "drf", "tetris"};
  std::vector<ScenarioSpec> scenarios;
  for (const char* allocation : allocations) {
    ScenarioSpec scenario = TestbedScenario();
    scenario.policies = {"optimus"};
    scenario.sim.ablation.allocator = allocation;  // the only knob that changes
    scenarios.push_back(scenario);
  }
  const std::vector<SweepCellResult> cells = RunSweep(scenarios).cells;

  TablePrinter table({"allocation", "avg JCT (s)", "JCT (norm)", "makespan (s)",
                      "makespan (norm)"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& r = cells[i];
    table.AddRow({allocations[i],
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / cells[0].avg_jct_mean, 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_mean / cells[0].makespan_mean, 2)});
  }
  table.Print(std::cout);
  return 0;
}
