// Extension: capacity planning — how does the fixed 12-job workload's
// performance scale with cluster size under each scheduler? Operators use
// this curve to size a cluster for a target JCT.

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: cluster sizing",
      "Average JCT vs cluster size (fixed 12-job workload)",
      "JCT falls with cluster size but saturates once every job reaches its "
      "speed knee; Optimus reaches any target JCT with fewer servers, and "
      "DRF's disadvantage grows with abundance (work-conserving "
      "over-allocation past the knee wastes more when more is available)");

  std::vector<ScenarioSpec> scenarios;
  for (int servers : {6, 10, 16, 24, 36}) {
    ScenarioSpec scenario = TestbedScenario();
    scenario.policies = {"optimus", "drf"};
    scenario.workload.num_jobs = 12;
    scenario.workload.arrivals.window_s = 6000.0;
    scenario.workload.sizes.target_steps_per_epoch = 60;
    scenario.cluster.testbed = false;
    scenario.cluster.classes = {{"uniform", servers, Resources(16, 80, 0, 1)}};
    scenarios.push_back(scenario);
  }
  const std::vector<SweepCellResult> cells = RunSweep(scenarios).cells;

  TablePrinter table({"# servers", "Optimus JCT (s)", "DRF JCT (s)", "DRF/Optimus"});
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const SweepCellResult& optimus = cells[2 * i];
    const SweepCellResult& drf = cells[2 * i + 1];
    table.AddRow({std::to_string(scenarios[i].cluster.NumServers()),
                  TablePrinter::FormatDouble(optimus.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(drf.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(drf.jct_vs_baseline, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nBoth schedulers saturate as jobs hit their speed knees; DRF "
               "cannot convert extra servers into lower JCT as well as "
               "Optimus can.\n";
  return 0;
}
