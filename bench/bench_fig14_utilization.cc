// Fig 14: number of running tasks and normalized CPU utilization on workers
// and parameter servers over one experiment run, per scheduler.

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 14", "Running tasks and normalized CPU utilization over time",
      "DRF (work-conserving) runs the most tasks but at the lowest per-task "
      "CPU utilization; Optimus runs fewer tasks and keeps them busier");

  WorkloadConfig workload;
  workload.num_jobs = 9;
  workload.target_steps_per_epoch = 80;

  struct SchedulerRun {
    std::string name;
    RunMetrics metrics;
  };
  std::vector<SchedulerRun> runs;
  for (const char* policy : {"optimus", "drf", "tetris"}) {
    SimulatorConfig config;
    ApplySchedulerPolicy(policy, &config);
    ApplyTestbedConditions(&config);
    config.seed = 5;
    Rng rng(config.seed ^ 0x5eedULL);
    Simulator sim(config, BuildTestbed(), GenerateWorkload(workload, &rng));
    runs.push_back({FindPolicy(policy)->display_name, sim.Run()});
  }

  PrintBanner(std::cout, "(a) running tasks per scheduling interval");
  TablePrinter tasks({"time (s)", "Optimus", "DRF", "Tetris"});
  size_t max_len = 0;
  for (const SchedulerRun& r : runs) {
    max_len = std::max(max_len, r.metrics.timeline.size());
  }
  for (size_t i = 0; i < max_len; i += 2) {
    std::vector<std::string> row;
    row.push_back(i < runs[0].metrics.timeline.size()
                      ? TablePrinter::FormatDouble(runs[0].metrics.timeline[i].time_s, 0)
                      : TablePrinter::FormatDouble((i + 1) * 600.0, 0));
    for (const SchedulerRun& r : runs) {
      row.push_back(i < r.metrics.timeline.size()
                        ? std::to_string(r.metrics.timeline[i].running_tasks)
                        : "-");
    }
    tasks.AddRow(row);
  }
  tasks.Print(std::cout);

  auto mean_util = [](const RunMetrics& m, bool worker) {
    RunningStat stat;
    for (const TimelinePoint& p : m.timeline) {
      if (p.running_tasks > 0) {
        stat.Add(worker ? p.worker_cpu_util_pct : p.ps_cpu_util_pct);
      }
    }
    return stat.mean();
  };
  auto mean_tasks = [](const RunMetrics& m) {
    RunningStat stat;
    for (const TimelinePoint& p : m.timeline) {
      if (p.running_tasks > 0) {
        stat.Add(p.running_tasks);
      }
    }
    return stat.mean();
  };

  PrintBanner(std::cout, "(b)(c) time-averaged utilization while busy");
  TablePrinter util({"scheduler", "mean running tasks", "worker CPU util %",
                     "PS CPU util %"});
  for (const SchedulerRun& r : runs) {
    util.AddRow({r.name, TablePrinter::FormatDouble(mean_tasks(r.metrics), 1),
                 TablePrinter::FormatDouble(mean_util(r.metrics, true), 1),
                 TablePrinter::FormatDouble(mean_util(r.metrics, false), 1)});
  }
  util.Print(std::cout);
  return 0;
}
