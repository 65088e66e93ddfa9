// Mixed-workload scenario (§7 "Various workloads"): a non-DL background
// workload reserves an oscillating share of every server, and Optimus
// schedules DL jobs on whatever remains — soaking up capacity at night and
// shrinking during the day.
//
//   ./examples/mixed_workload

#include <iostream>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

int main() {
  using namespace optimus;

  WorkloadConfig workload;
  workload.num_jobs = 12;
  workload.arrival_window_s = 6000.0;
  workload.target_steps_per_epoch = 60;
  Rng rng(9);
  std::vector<JobSpec> jobs = GenerateWorkload(workload, &rng);

  SimulatorConfig config;
  // Background workload takes up to 50% of every server, oscillating with a
  // 2-hour period (a fast "day/night" cycle for demonstration).
  config.background_share = 0.5;
  config.background_period_s = 7200.0;
  config.seed = 9;

  std::cout << "12 DL jobs sharing the 13-server testbed with a background "
               "workload that oscillates between 0% and 50% of each server\n\n";

  Simulator sim(config, BuildTestbed(), jobs);
  RunMetrics metrics = sim.Run();

  TablePrinter table({"t (s)", "background share %", "running DL tasks"});
  for (size_t i = 0; i < metrics.timeline.size(); i += 2) {
    const TimelinePoint& p = metrics.timeline[i];
    constexpr double kTwoPi = 6.283185307179586;
    const double share =
        0.5 * (0.5 + 0.5 * std::sin(kTwoPi * (p.time_s - 600.0) / 7200.0));
    table.AddRow({TablePrinter::FormatDouble(p.time_s, 0),
                  TablePrinter::FormatDouble(share * 100.0, 0),
                  std::to_string(p.running_tasks)});
  }
  table.Print(std::cout);

  std::cout << "\nCompleted " << metrics.completed_jobs << "/" << metrics.total_jobs
            << " jobs; avg JCT " << TablePrinter::FormatDouble(metrics.avg_jct_s, 0)
            << " s, makespan " << TablePrinter::FormatDouble(metrics.makespan_s, 0)
            << " s.\nThe running-task count tracks the inverse of the background "
               "share: Optimus expands into freed capacity and retreats when the "
               "background workload returns.\n";
  return metrics.completed_jobs == metrics.total_jobs ? 0 : 1;
}
