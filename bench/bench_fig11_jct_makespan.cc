// Fig 11 / Fig 13 (+ §6.2 scaling overhead): average JCT and makespan of
// Optimus vs the DRF fairness scheduler vs Tetris on the 13-server testbed
// workload (9 Table-1 jobs, random modes, arrivals over [0, 12000] s).

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 11 / Fig 13", "JCT and makespan: Optimus vs DRF vs Tetris (testbed)",
      "Optimus wins on both metrics; paper: DRF 2.39x JCT / 1.63x makespan, "
      "Tetris in between (~1.7x JCT); scaling overhead ~2.5% of runtime");

  const std::vector<SweepCellResult> results =
      RunPolicyComparison(TestbedScenario(), "average over 5 workload seeds");

  std::cout << "\nResource-adjustment overhead (Optimus): "
            << TablePrinter::FormatDouble(results[0].scaling_overhead_mean * 100.0, 2)
            << "% of job runtime (paper: 2.54% of makespan)\n";
  return 0;
}
