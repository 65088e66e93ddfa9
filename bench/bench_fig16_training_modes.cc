// Fig 16: sensitivity to workloads — all jobs asynchronous vs all jobs
// synchronous.

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 16", "Sensitivity to training modes (all-async vs all-sync)",
      "Optimus outperforms DRF and Tetris in both modes; the gain is larger "
      "when all jobs train synchronously (estimates are more reliable)");

  for (TrainingMode mode : {TrainingMode::kAsync, TrainingMode::kSync}) {
    ScenarioSpec scenario = TestbedScenario();
    scenario.workload.forced_mode = mode;
    RunPolicyComparison(scenario, std::string("all jobs ") + TrainingModeName(mode));
  }
  return 0;
}
