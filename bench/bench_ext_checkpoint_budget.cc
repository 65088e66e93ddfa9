// Extension (§7 "Scaling overhead"): sweep the per-job checkpoint budget —
// the maximum number of elastic rescalings a job may perform — and measure
// the JCT / scaling-overhead trade-off.

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: checkpoint budget",
      "JCT vs per-job rescaling budget (§7 'Scaling overhead')",
      "a small budget forfeits elasticity (higher JCT): once a job spends its "
      "budget it freezes at whatever allocation it had, often one chosen from "
      "early noisy estimates. An unlimited budget maximizes elasticity at a "
      "small checkpoint-overhead cost.");

  const int budgets[] = {0, 1, 2, 4, 8};  // 0 = unlimited
  std::vector<ScenarioSpec> scenarios;
  for (int budget : budgets) {
    ScenarioSpec scenario = TestbedScenario();
    scenario.policies = {"optimus"};
    scenario.repeats = 10;
    scenario.workload.num_jobs = 12;
    scenario.workload.arrivals.window_s = 6000.0;
    scenario.sim.checkpoint.max_scalings_per_job = budget;
    scenarios.push_back(scenario);
  }
  const std::vector<SweepCellResult> cells = RunSweep(scenarios).cells;

  TablePrinter table({"max rescalings/job", "avg JCT (s)", "JCT (norm)",
                      "makespan (s)", "scaling overhead %"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& r = cells[i];
    table.AddRow({budgets[i] == 0 ? "unlimited" : std::to_string(budgets[i]),
                  TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / cells[0].avg_jct_mean, 3),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.scaling_overhead_mean * 100.0, 2)});
  }
  table.Print(std::cout);
  return 0;
}
