// Extension: capacity planning — how does the fixed 12-job workload's
// performance scale with cluster size under each scheduler? Operators use
// this curve to size a cluster for a target JCT.

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: cluster sizing",
      "Average JCT vs cluster size (fixed 12-job workload)",
      "JCT falls with cluster size but saturates once every job reaches its "
      "speed knee; Optimus reaches any target JCT with fewer servers, and "
      "DRF's disadvantage grows with abundance (work-conserving "
      "over-allocation past the knee wastes more when more is available)");

  TablePrinter table({"# servers", "Optimus JCT (s)", "DRF JCT (s)", "DRF/Optimus"});
  for (int servers : {6, 10, 16, 24, 36}) {
    std::vector<double> jcts;
    for (const char* policy : {"optimus", "drf"}) {
      ExperimentConfig config;
      ApplySchedulerPolicy(policy, &config.sim);
      ApplyTestbedConditions(&config.sim);
      config.workload.num_jobs = 12;
      config.workload.arrival_window_s = 6000.0;
      config.workload.target_steps_per_epoch = 60;
      config.repeats = 5;
      ExperimentResult r = RunExperiment(config, [servers] {
        return BuildUniformCluster(servers, Resources(16, 80, 0, 1));
      });
      jcts.push_back(r.avg_jct_mean);
    }
    table.AddRow({std::to_string(servers), TablePrinter::FormatDouble(jcts[0], 0),
                  TablePrinter::FormatDouble(jcts[1], 0),
                  TablePrinter::FormatDouble(jcts[1] / jcts[0], 2)});
  }
  table.Print(std::cout);
  std::cout << "\nBoth schedulers saturate as jobs hit their speed knees; DRF "
               "cannot convert extra servers into lower JCT as well as "
               "Optimus can.\n";
  return 0;
}
