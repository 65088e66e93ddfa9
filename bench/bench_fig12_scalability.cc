// Fig 12: scheduling time (allocation + placement for one interval) when
// emulating thousands of jobs on clusters of up to 16,000 nodes — plus the
// memoized speed-surface fast path: the same round with and without the
// per-round (p, w) cache, reported to BENCH_sched.json.
//
// Speed probes here run the full Eqn-2 step-time model at full fidelity:
// because PS load imbalance depends on how many parameter servers the model's
// blocks are spread over, each probe recomputes the §5.3 block assignment for
// the probed p. That is the estimate a what-if round really wants — and it is
// exactly the Pollux/DL2-style expensive-per-point evaluation that makes the
// memoized surface pay off.

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/models/model_zoo.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sched/speed_surface.h"

namespace {

using namespace optimus;

std::vector<SchedJob> MakeJobs(int num_jobs) {
  const size_t zoo_size = GetModelZoo().size();
  std::vector<SchedJob> jobs;
  jobs.reserve(num_jobs);
  for (int i = 0; i < num_jobs; ++i) {
    SchedJob job;
    job.job_id = i;
    job.worker_demand = Resources(5, 10, 0, 0.2);
    job.ps_demand = Resources(5, 10, 0, 0.2);
    job.max_ps = 16;
    job.max_workers = 16;
    job.remaining_epochs = 10.0 + (i % 50);
    // Jobs built from the same zoo profile carry equal estimates, so they
    // share one memoized surface.
    job.speed = ZooOracleSpeed(static_cast<size_t>(i) % zoo_size);
    jobs.push_back(job);
  }
  return jobs;
}

struct RoundResult {
  double round_s = 0.0;
  double alloc_s = 0.0;
  int64_t tasks = 0;
  int64_t probes = 0;
  int64_t evals = 0;
  double hit_rate = 0.0;
  int64_t surfaces = 0;
};

// One full Optimus scheduling round (allocation + placement), with speed
// probes served through a SpeedSurfaceSet (pass-through when !cached).
RoundResult TimeSchedulingRound(int num_jobs, int num_nodes, bool cached) {
  std::vector<Server> servers =
      BuildUniformCluster(num_nodes, Resources(16, 80, 0, 1));
  const Resources capacity = TotalCapacity(servers);
  const std::vector<SchedJob> jobs = MakeJobs(num_jobs);

  RoundResult result;
  const auto start = std::chrono::steady_clock::now();
  SpeedSurfaceSet surfaces(cached);
  const std::vector<Allocation> alloc = OptimusAllocator().Allocate(jobs, capacity, &surfaces);
  const auto alloc_done = std::chrono::steady_clock::now();
  std::vector<PlacementJobInput> inputs;
  inputs.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Allocation& a = alloc[i];
    inputs.push_back({jobs[i].job_id, a, jobs[i].worker_demand, jobs[i].ps_demand});
    result.tasks += a.num_ps + a.num_workers;
  }
  const std::vector<PlacedJob> placed =
      PlaceJobs(PlacementPolicy::kOptimusPack, inputs, &servers);
  const auto end = std::chrono::steady_clock::now();
  (void)placed;

  result.round_s = std::chrono::duration<double>(end - start).count();
  result.alloc_s = std::chrono::duration<double>(alloc_done - start).count();
  result.probes = surfaces.probes();
  result.evals = surfaces.evals();
  result.hit_rate = surfaces.hit_rate();
  result.surfaces = surfaces.num_surfaces();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // --smoke: a seconds-scale subset for tools/check.sh and CI.
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_sched.json");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }

  PrintExperimentHeader(
      "Fig 12", "Scheduling time vs cluster size and job count",
      "Optimus schedules 4,000 jobs (~100,000 tasks) on 16,000 nodes within "
      "~5 seconds on one core; time grows mildly with nodes and jobs");

  const std::vector<int> node_counts = smoke ? std::vector<int>{500}
                                             : std::vector<int>{1000, 4000, 16000};
  const std::vector<int> job_counts =
      smoke ? std::vector<int>{200} : std::vector<int>{1000, 2000, 4000, 8000};

  std::vector<std::string> header = {"# nodes"};
  for (int jobs : job_counts) {
    header.push_back(std::to_string(jobs) + " jobs (s)");
  }
  TablePrinter table(header);
  double t_largest = 0.0;
  for (int nodes : node_counts) {
    std::vector<std::string> row = {std::to_string(nodes)};
    for (int jobs : job_counts) {
      const RoundResult r = TimeSchedulingRound(jobs, nodes, /*cached=*/true);
      std::cout << "    (" << jobs << " jobs -> " << r.tasks << " tasks)\n";
      t_largest = r.round_s;
      row.push_back(TablePrinter::FormatDouble(r.round_s, 3));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\n" << job_counts.back() << " jobs on " << node_counts.back()
            << " nodes: " << TablePrinter::FormatDouble(t_largest, 3)
            << " s with caching (paper: < 5 s)\n";

  // Cached vs uncached fast-path comparison (the ISSUE's 1,000-job,
  // 16,000-node acceptance point; scaled down under --smoke).
  const int cmp_jobs = smoke ? 200 : 1000;
  const int cmp_nodes = smoke ? 500 : 16000;
  std::cout << "\nSpeed-surface fast path (" << cmp_jobs << " jobs, " << cmp_nodes
            << " nodes):\n";
  const RoundResult uncached = TimeSchedulingRound(cmp_jobs, cmp_nodes, false);
  const RoundResult cached = TimeSchedulingRound(cmp_jobs, cmp_nodes, true);
  const double round_speedup =
      cached.round_s > 0.0 ? uncached.round_s / cached.round_s : 0.0;
  const double alloc_speedup =
      cached.alloc_s > 0.0 ? uncached.alloc_s / cached.alloc_s : 0.0;

  TablePrinter cmp({"mode", "round (s)", "alloc (s)", "probes", "evals",
                    "hit rate", "surfaces"});
  cmp.AddRow({"uncached", TablePrinter::FormatDouble(uncached.round_s, 3),
              TablePrinter::FormatDouble(uncached.alloc_s, 3),
              std::to_string(uncached.probes), std::to_string(uncached.evals),
              TablePrinter::FormatDouble(uncached.hit_rate, 3),
              std::to_string(uncached.surfaces)});
  cmp.AddRow({"cached", TablePrinter::FormatDouble(cached.round_s, 3),
              TablePrinter::FormatDouble(cached.alloc_s, 3),
              std::to_string(cached.probes), std::to_string(cached.evals),
              TablePrinter::FormatDouble(cached.hit_rate, 3),
              std::to_string(cached.surfaces)});
  cmp.Print(std::cout);
  std::cout << "round speedup: " << TablePrinter::FormatDouble(round_speedup, 2)
            << "x, allocation speedup: " << TablePrinter::FormatDouble(alloc_speedup, 2)
            << "x\n";

  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("jobs", cmp_jobs);
  section.Set("nodes", cmp_nodes);
  section.Set("round_s_uncached", uncached.round_s);
  section.Set("round_s_cached", cached.round_s);
  section.Set("alloc_s_uncached", uncached.alloc_s);
  section.Set("alloc_s_cached", cached.alloc_s);
  section.Set("round_speedup", round_speedup);
  section.Set("alloc_speedup", alloc_speedup);
  section.Set("probes_uncached", uncached.probes);
  section.Set("evals_uncached", uncached.evals);
  section.Set("probes_cached", cached.probes);
  section.Set("evals_cached", cached.evals);
  section.Set("cache_hit_rate", cached.hit_rate);
  section.Set("surfaces", cached.surfaces);
  section.Set("largest_round_s_cached", t_largest);
  if (WriteBenchJsonSection(json_path, "fig12_scalability", section)) {
    std::cout << "wrote section fig12_scalability to " << json_path << "\n";
  }
  return 0;
}
