// Extension: optimality gap of the §4.1 marginal-gain greedy.
//
// The allocation problem (Eqns 5-8) is NP-hard; the paper argues its greedy
// is "simple yet effective" but cannot quantify how close to optimal it
// lands. On small random instances we can enumerate the true optimum and
// measure the gap — for the greedy and for the baselines' allocation rules.

#include <cmath>
#include <deque>
#include <iostream>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sched/baseline_allocators.h"
#include "src/sched/exhaustive_allocator.h"
#include "src/sched/optimus_allocator.h"

namespace {

using namespace optimus;

// A concave speed of shape {a, b}: the worker knee and the PS pressure.
double ConcaveSpeed(const void* ctx, int p, int w) {
  const auto& [a, b] = *static_cast<const std::pair<double, double>*>(ctx);
  return 1.0 / (a / w + 1.0 + b * w / p + 0.1 * w + 0.1 * p);
}

// Storage for the speed contexts, alive for the whole run.
const std::pair<double, double>& KeepShape(std::pair<double, double> shape) {
  static std::deque<std::pair<double, double>> kept;
  return kept.emplace_back(shape);
}

SchedJob RandomJob(int id, Rng* rng) {
  SchedJob job;
  job.job_id = id;
  job.worker_demand = Resources(5, 10, 0, 0.2);
  job.ps_demand = Resources(5, 10, 0, 0.2);
  job.max_ps = 5;
  job.max_workers = 5;
  job.remaining_epochs = rng->Uniform(2.0, 40.0);
  const double a = rng->Uniform(2.0, 12.0);
  const double b = rng->Uniform(0.2, 1.5);
  job.speed = SpeedEstimate::Custom(&ConcaveSpeed, &KeepShape({a, b}));
  return job;
}

}  // namespace

int main() {
  PrintExperimentHeader(
      "EXT: optimality gap",
      "Allocation objective (sum of estimated completion times) vs the "
      "enumerated optimum on random small instances",
      "the marginal-gain greedy stays within a few percent of optimal on "
      "average; size-blind DRF and unit-locked Tetris leave a larger gap");

  const OptimusAllocator optimus;
  const DrfAllocator drf;
  const TetrisAllocator tetris;
  const ExhaustiveAllocator exhaustive;

  struct GapStat {
    const char* name;
    const Allocator* allocator;
    RunningStat gap;
  };
  std::vector<GapStat> stats = {
      {"Optimus greedy", &optimus, {}},
      {"DRF", &drf, {}},
      {"Tetris", &tetris, {}},
  };

  Rng rng(20180423);
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    Rng trial_rng = rng.Split(trial);
    std::vector<SchedJob> jobs;
    const int n = static_cast<int>(trial_rng.UniformInt(2, 3));
    for (int i = 0; i < n; ++i) {
      jobs.push_back(RandomJob(i, &trial_rng));
    }
    const Resources capacity(trial_rng.Uniform(40.0, 90.0), 4000, 0, 100);

    const double optimal =
        ExhaustiveAllocator::Objective(jobs, exhaustive.Allocate(jobs, capacity));
    if (optimal <= 0.0) {
      continue;
    }
    for (GapStat& s : stats) {
      const double value =
          ExhaustiveAllocator::Objective(jobs, s.allocator->Allocate(jobs, capacity));
      s.gap.Add(100.0 * (value / optimal - 1.0));
    }
  }

  TablePrinter table({"allocator", "mean gap %", "p-worst gap %", "trials"});
  for (GapStat& s : stats) {
    table.AddRow({s.name, TablePrinter::FormatDouble(s.gap.mean(), 2),
                  TablePrinter::FormatDouble(s.gap.max(), 2),
                  std::to_string(s.gap.count())});
  }
  table.Print(std::cout);
  std::cout << "\nGap = (allocator objective / enumerated optimum) - 1, on 2-3 job "
               "instances with tight capacity.\n";
  return 0;
}
