// Fig 15: sensitivity of Optimus to prediction errors — JCT and makespan as
// convergence-estimation or speed-estimation errors grow. Also evaluates the
// §4.1 young-job priority factor (paper: 0.95 improves JCT by 2.66% and
// makespan by 1.88%).

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"

namespace {

using namespace optimus;

struct Point {
  double jct;
  double makespan;
};

Point RunWithError(double conv_err, double speed_err, double priority, int repeats) {
  ExperimentConfig config;
  ApplySchedulerPolicy("optimus", &config.sim);
  config.sim.oracle_estimates = true;
  config.sim.error.convergence_error = conv_err;
  config.sim.error.speed_error = speed_err;
  config.sim.young_job_priority_factor = priority;
  // A contended workload: mis-estimates only cost performance when jobs
  // genuinely compete for the slots.
  config.workload.num_jobs = 15;
  config.workload.arrival_window_s = 6000.0;
  config.workload.target_steps_per_epoch = 80;
  config.repeats = repeats;
  ExperimentResult r = RunExperiment(config, [] { return BuildTestbed(); });
  return {r.avg_jct_mean, r.makespan_mean};
}

}  // namespace

int main() {
  PrintExperimentHeader(
      "Fig 15", "Sensitivity to prediction errors (oracle + injected error)",
      "JCT and makespan grow with error but with diminishing slope; speed "
      "errors hurt more than convergence errors; ~15% gap at (20% conv, 10% "
      "speed) error");

  const int repeats = 20;
  const Point base = RunWithError(0.0, 0.0, 0.95, repeats);

  PrintBanner(std::cout, "(a)(b) normalized JCT / makespan vs injected error");
  TablePrinter table({"error %", "JCT (conv err)", "makespan (conv err)",
                      "JCT (speed err)", "makespan (speed err)"});
  for (double err : {0.0, 0.15, 0.30, 0.45}) {
    const Point conv = RunWithError(err, 0.0, 0.95, repeats);
    const Point speed = RunWithError(0.0, err, 0.95, repeats);
    table.AddRow({TablePrinter::FormatDouble(err * 100.0, 0),
                  TablePrinter::FormatDouble(conv.jct / base.jct, 3),
                  TablePrinter::FormatDouble(conv.makespan / base.makespan, 3),
                  TablePrinter::FormatDouble(speed.jct / base.jct, 3),
                  TablePrinter::FormatDouble(speed.makespan / base.makespan, 3)});
  }
  table.Print(std::cout);

  const Point mixed = RunWithError(0.20, 0.10, 0.95, repeats);
  std::cout << "\nAt (20% convergence, 10% speed) error: JCT "
            << TablePrinter::FormatDouble(100.0 * (mixed.jct / base.jct - 1.0), 1)
            << "% above error-free (paper: ~15%)\n";

  PrintBanner(std::cout, "young-job priority factor (paper: 0.95 helps slightly)");
  const Point damped = RunWithError(0.25, 0.15, 0.95, repeats);
  const Point undamped = RunWithError(0.25, 0.15, 1.0, repeats);
  TablePrinter prio({"priority factor", "avg JCT (s)", "makespan (s)"});
  prio.AddRow({"1.00", TablePrinter::FormatDouble(undamped.jct, 0),
               TablePrinter::FormatDouble(undamped.makespan, 0)});
  prio.AddRow({"0.95", TablePrinter::FormatDouble(damped.jct, 0),
               TablePrinter::FormatDouble(damped.makespan, 0)});
  prio.Print(std::cout);
  std::cout << "JCT change from damping: "
            << TablePrinter::FormatDouble(100.0 * (1.0 - damped.jct / undamped.jct), 2)
            << "% (paper: +2.66%), makespan: "
            << TablePrinter::FormatDouble(
                   100.0 * (1.0 - damped.makespan / undamped.makespan), 2)
            << "% (paper: +1.88%)\n";
  return 0;
}
