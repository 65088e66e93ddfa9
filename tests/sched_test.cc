#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sched/baseline_allocators.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sched/scheduler.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

// A simple concave speed function: f improves with both p and w but with
// diminishing returns, peaking inside the grid.
SpeedEstimate ConcaveSpeed(double scale = 1.0) {
  return KeepSpeed([scale](int p, int w) {
    const double t = 4.0 / w + 1.0 + 0.8 * w / p + 0.05 * w + 0.05 * p;
    return scale / t;
  });
}

SchedJob MakeJob(int id, double remaining_epochs, SpeedEstimate speed,
                 double cpu_per_task = 5.0) {
  SchedJob job;
  job.job_id = id;
  job.worker_demand = Resources(cpu_per_task, 10, 0, 0.2);
  job.ps_demand = Resources(cpu_per_task, 10, 0, 0.2);
  job.remaining_epochs = remaining_epochs;
  job.speed = std::move(speed);
  job.max_ps = 16;
  job.max_workers = 16;
  return job;
}

Resources Capacity(double cpu) { return Resources(cpu, 10000, 0, 1000); }

// How many of `jobs` their positional allocation actually runs.
int CountActive(const std::vector<SchedJob>& jobs, const std::vector<Allocation>& alloc) {
  int n = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    n += ActiveAllocation(alloc[i], jobs[i].comm) ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// OptimusAllocator
// ---------------------------------------------------------------------------

TEST(OptimusAllocatorTest, SeedsEveryJobWithOneWorkerOnePs) {
  OptimusAllocator allocator;
  std::vector<SchedJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeJob(i, 10.0, ConcaveSpeed()));
  }
  // Capacity for exactly the seeds (4 jobs x 2 tasks x 5 cpu).
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(40));
  ASSERT_EQ(result.size(), jobs.size());
  ASSERT_EQ(CountActive(jobs, result), 4);
  for (const Allocation& alloc : result) {
    EXPECT_EQ(alloc.num_ps, 1);
    EXPECT_EQ(alloc.num_workers, 1);
  }
}

TEST(OptimusAllocatorTest, RespectsCapacity) {
  OptimusAllocator allocator;
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, ConcaveSpeed()),
                                MakeJob(1, 20.0, ConcaveSpeed())};
  const double cpu = 65.0;  // 13 tasks
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(cpu));
  double used = 0.0;
  for (const Allocation& alloc : result) {
    used += 5.0 * (alloc.num_ps + alloc.num_workers);
  }
  EXPECT_LE(used, cpu + 1e-9);
  // Work-hungry concave speeds should drive usage close to capacity.
  EXPECT_GE(used, cpu - 10.0);
}

TEST(OptimusAllocatorTest, LargerJobGetsMoreResources) {
  // Same speed function; job 1 has 10x the remaining work, so its marginal
  // gains (Eqn 9 scales with Q) dominate.
  OptimusAllocator allocator;
  std::vector<SchedJob> jobs = {MakeJob(0, 2.0, ConcaveSpeed()),
                                MakeJob(1, 20.0, ConcaveSpeed())};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(100));
  const int tasks0 = result[0].num_ps + result[0].num_workers;
  const int tasks1 = result[1].num_ps + result[1].num_workers;
  EXPECT_GT(tasks1, tasks0);
}

TEST(OptimusAllocatorTest, StopsAtNonPositiveMarginalGain) {
  // Speed independent of resources: no gain from extra tasks, so every job
  // stays at its (1, 1) seed even with abundant capacity.
  OptimusAllocator allocator;
  const SpeedEstimate flat = KeepSpeed([](int, int) { return 1.0; });
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, flat), MakeJob(1, 10.0, flat)};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(1000));
  for (const Allocation& alloc : result) {
    EXPECT_EQ(alloc.num_ps, 1);
    EXPECT_EQ(alloc.num_workers, 1);
  }
}

TEST(OptimusAllocatorTest, LazyHeapDropsStaleCandidates) {
  // Each pop takes a job's current best task: it is granted or, when its
  // kind no longer fits, dropped for the round. No entry ever goes stale, so
  // pops == grants + unfittable_drops, on a slack round (no heap at all) and
  // on a binding one (the one-entry-per-job merge).
  for (const double cpu : {1000.0, 100.0}) {
    OptimusAllocRoundStats stats;
    OptimusAllocator allocator(&stats);
    std::vector<SchedJob> jobs = {MakeJob(0, 10.0, ConcaveSpeed()),
                                  MakeJob(1, 20.0, ConcaveSpeed())};
    allocator.Allocate(jobs, Capacity(cpu));
    EXPECT_GT(stats.grants, 0) << "cpu " << cpu;
    EXPECT_EQ(stats.pops, stats.grants + stats.unfittable_drops) << "cpu " << cpu;
  }
}

TEST(OptimusAllocatorTest, UnfittableKindIsDroppedWhileOtherKindFills) {
  // PS tasks are cheaper than workers and the speed gains favor parameter
  // servers, so the greedy keeps granting PSes until the worker candidate no
  // longer fits the shrunken capacity: it must be dropped (not wedge the
  // heap) while the PS side keeps filling.
  OptimusAllocRoundStats stats;
  OptimusAllocator allocator(&stats);
  SchedJob job;
  job.job_id = 0;
  job.worker_demand = Resources(5, 10, 0, 0.2);
  job.ps_demand = Resources(3, 10, 0, 0.2);
  job.remaining_epochs = 10.0;
  // Improves strongly with p, only faintly with w: PS gains dominate but the
  // worker candidate stays positive (so it gets pushed, then popped).
  job.speed = KeepSpeed([](int p, int w) {
    return 1.0 / (4.0 / p + 0.2 / w + 0.05 * p + 0.05 * w);
  });
  job.max_ps = 16;
  job.max_workers = 16;

  // Seed (1 PS, 1 worker) costs 8 CPUs; the remaining 6 fit two more PSes
  // (3 each) but never another worker (5).
  std::vector<Allocation> result = allocator.Allocate({job}, Capacity(14.0));
  EXPECT_EQ(result[0].num_workers, 1);
  EXPECT_EQ(result[0].num_ps, 3);
  EXPECT_GE(stats.unfittable_drops, 1);
  EXPECT_EQ(stats.pops, stats.grants + stats.unfittable_drops);
}

TEST(OptimusAllocatorTest, PrefersWorkerOrPsByGain) {
  // Speed that only improves with workers: all additional tasks should be
  // workers.
  OptimusAllocator allocator;
  const SpeedEstimate worker_only =
      KeepSpeed([](int /*p*/, int w) { return 1.0 - 1.0 / (1.0 + w); });
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, worker_only)};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(60));
  EXPECT_EQ(result[0].num_ps, 1);
  EXPECT_GT(result[0].num_workers, 1);
}

TEST(OptimusAllocatorTest, RespectsPerJobCaps) {
  OptimusAllocator allocator;
  SchedJob job = MakeJob(0, 100.0, ConcaveSpeed());
  job.max_ps = 2;
  job.max_workers = 3;
  std::vector<Allocation> result = allocator.Allocate({job}, Capacity(1000));
  EXPECT_LE(result[0].num_ps, 2);
  EXPECT_LE(result[0].num_workers, 3);
}

TEST(OptimusAllocatorTest, PriorityFactorDampsYoungJob) {
  // Two identical jobs, one with a damped priority: the damped one must not
  // receive more tasks than the other.
  OptimusAllocator allocator;
  SchedJob a = MakeJob(0, 10.0, ConcaveSpeed());
  SchedJob b = MakeJob(1, 10.0, ConcaveSpeed());
  b.priority_factor = 0.5;
  std::vector<Allocation> result = allocator.Allocate({a, b}, Capacity(90));
  const int tasks_a = result[0].num_ps + result[0].num_workers;
  const int tasks_b = result[1].num_ps + result[1].num_workers;
  EXPECT_GE(tasks_a, tasks_b);
}

TEST(OptimusAllocatorTest, ZeroRemainingWorkGetsOnlySeed) {
  OptimusAllocator allocator;
  std::vector<SchedJob> jobs = {MakeJob(0, 0.0, ConcaveSpeed()),
                                MakeJob(1, 10.0, ConcaveSpeed())};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(100));
  EXPECT_EQ(result[0].num_ps + result[0].num_workers, 2);
  EXPECT_GT(result[1].num_ps + result[1].num_workers, 2);
}

TEST(OptimusAllocatorTest, DeterministicAcrossCalls) {
  OptimusAllocator allocator;
  std::vector<SchedJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(MakeJob(i, 5.0 + i, ConcaveSpeed(1.0 + 0.1 * i)));
  }
  std::vector<Allocation> a = allocator.Allocate(jobs, Capacity(200));
  std::vector<Allocation> b = allocator.Allocate(jobs, Capacity(200));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// DrfAllocator
// ---------------------------------------------------------------------------

TEST(DrfAllocatorTest, EqualJobsGetEqualShares) {
  DrfAllocator allocator;
  std::vector<SchedJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeJob(i, 10.0 * (i + 1), ConcaveSpeed()));
  }
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(200));  // 40 tasks
  // Equal demands => equal units regardless of job size (DRF is size-blind).
  ASSERT_EQ(CountActive(jobs, result), 4);
  int reference = result[0].num_workers;
  for (const Allocation& alloc : result) {
    EXPECT_EQ(alloc.num_workers, alloc.num_ps);  // 1:1 ratio
    EXPECT_NEAR(alloc.num_workers, reference, 1);
  }
}

TEST(DrfAllocatorTest, SmallerDemandJobGetsMoreUnits) {
  // DRF equalizes dominant shares: a job with half the per-task demand gets
  // about twice the units.
  DrfAllocator allocator;
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, ConcaveSpeed(), /*cpu=*/10.0),
                                MakeJob(1, 10.0, ConcaveSpeed(), /*cpu=*/5.0)};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(120));
  EXPECT_GT(result[1].num_workers, result[0].num_workers);
}

TEST(DrfAllocatorTest, WorkConservingUpToCaps) {
  DrfAllocator allocator;
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, ConcaveSpeed())};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(1000));
  // One job, plenty of room: fills to its cap even though speed saturates.
  EXPECT_EQ(result[0].num_workers, 16);
  EXPECT_EQ(result[0].num_ps, 16);
}

// ---------------------------------------------------------------------------
// TetrisAllocator
// ---------------------------------------------------------------------------

TEST(TetrisAllocatorTest, ShortJobServedFirst) {
  TetrisAllocator allocator;
  // Job 0 is 100x longer than job 1; under tight capacity the short job gets
  // the larger share.
  std::vector<SchedJob> jobs = {MakeJob(0, 100.0, ConcaveSpeed()),
                                MakeJob(1, 1.0, ConcaveSpeed())};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(60));  // 12 tasks
  const int tasks0 = result[0].num_ps + result[0].num_workers;  // 0 when unallocated
  const int tasks1 = result[1].num_ps + result[1].num_workers;
  EXPECT_GT(tasks1, tasks0);
}

TEST(TetrisAllocatorTest, OneToOneRatio) {
  TetrisAllocator allocator;
  std::vector<SchedJob> jobs = {MakeJob(0, 5.0, ConcaveSpeed())};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(100));
  ASSERT_TRUE(ActiveAllocation(result[0], jobs[0].comm));
  EXPECT_EQ(result[0].num_ps, result[0].num_workers);
}

TEST(TetrisAllocatorTest, StopsAtSpeedKnee) {
  // A speed function that is flat beyond 3 units: Tetris should not allocate
  // far past the knee even with huge capacity.
  TetrisAllocator allocator;
  const SpeedEstimate knee = KeepSpeed([](int p, int w) {
    const int u = std::min(p, w);
    return u <= 3 ? static_cast<double>(u) : 3.0 + 0.001 * (u - 3);
  });
  std::vector<SchedJob> jobs = {MakeJob(0, 10.0, knee)};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(1000));
  EXPECT_LE(result[0].num_workers, 5);
}

TEST(TetrisAllocatorTest, LeftoverCapacityIsNotWasted) {
  TetrisAllocator allocator;
  std::vector<SchedJob> jobs = {MakeJob(0, 1.0, ConcaveSpeed()),
                                MakeJob(1, 50.0, ConcaveSpeed())};
  std::vector<Allocation> result = allocator.Allocate(jobs, Capacity(300));
  // Even the long job gets resources once the short one saturates.
  ASSERT_TRUE(ActiveAllocation(result[1], jobs[1].comm));
  EXPECT_GE(result[1].num_workers, 1);
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

std::vector<Server> Uniform(int n, double cpu) {
  return BuildUniformCluster(n, Resources(cpu, 1000, 0, 10));
}

PlacementJobInput PJob(int id, int p, int w, double cpu = 5.0) {
  PlacementJobInput job;
  job.job_id = id;
  job.alloc = {p, w};
  job.worker_demand = Resources(cpu, 10, 0, 0.1);
  job.ps_demand = Resources(cpu, 10, 0, 0.1);
  return job;
}

// PlaceJobs on a scratch copy of `servers`.
std::vector<PlacedJob> Place(PlacementPolicy policy,
                             const std::vector<PlacementJobInput>& jobs,
                             std::vector<Server> servers, bool shrink_to_fit = true) {
  return PlaceJobs(policy, jobs, &servers, shrink_to_fit);
}

TEST(PlacementTest, OptimusPacksOntoFewestServers) {
  // 2 PS + 2 workers at 5 cpu each fit on a single 20-cpu server.
  std::vector<PlacedJob> result =
      Place(PlacementPolicy::kOptimusPack, {PJob(0, 2, 2)}, Uniform(4, 20));
  ASSERT_TRUE(result[0].placed);
  EXPECT_EQ(result[0].placement.used_servers.size(), 1u);
}

TEST(PlacementTest, OptimusSpreadsEvenlyWhenMultipleServersNeeded) {
  // 4 PS + 4 workers at 5 cpu = 40 cpu; servers hold 20 cpu each => 2 servers
  // with 2 PS + 2 workers each (Theorem 1).
  std::vector<PlacedJob> result =
      Place(PlacementPolicy::kOptimusPack, {PJob(0, 4, 4)}, Uniform(4, 20));
  ASSERT_TRUE(result[0].placed);
  const JobPlacement& p = result[0].placement;
  EXPECT_EQ(p.used_servers.size(), 2u);
  p.ForEachUsed([](size_t s, int w, int ps) {
    EXPECT_EQ(w, 2) << "server " << s;
    EXPECT_EQ(ps, 2) << "server " << s;
  });
}

TEST(PlacementTest, CountsMatchAllocation) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kOptimusPack, PlacementPolicy::kLoadBalance,
        PlacementPolicy::kTetrisPack}) {
    SCOPED_TRACE(PlacementPolicyName(policy));
    std::vector<PlacedJob> result =
        Place(policy, {PJob(0, 3, 5), PJob(1, 2, 2)}, Uniform(6, 20));
    for (int id : {0, 1}) {
      ASSERT_TRUE(result[id].placed);
      const JobPlacement& p = result[id].placement;
      const Allocation want = id == 0 ? Allocation{3, 5} : Allocation{2, 2};
      EXPECT_EQ(p.TotalPs(), want.num_ps);
      EXPECT_EQ(p.TotalWorkers(), want.num_workers);
      EXPECT_TRUE(result[id].alloc == want);
    }
  }
}

TEST(PlacementTest, RespectsServerCapacity) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kOptimusPack, PlacementPolicy::kLoadBalance,
        PlacementPolicy::kTetrisPack}) {
    SCOPED_TRACE(PlacementPolicyName(policy));
    std::vector<PlacementJobInput> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(PJob(i, 2, 2));
    }
    std::vector<PlacedJob> result = Place(policy, jobs, Uniform(4, 20));
    // 4 jobs x 4 tasks x 5 cpu = 80 cpu = total capacity: per-server loads
    // must never exceed 4 tasks.
    std::vector<int> per_server(4, 0);
    for (const PlacedJob& r : result) {
      r.placement.ForEachUsed([&](size_t s, int w, int ps) { per_server[s] += w + ps; });
    }
    for (int c : per_server) {
      EXPECT_LE(c, 4);
    }
  }
}

TEST(PlacementTest, ShrinkToFitReducesOversizedJob) {
  // 8+8 tasks cannot fit on 2 small servers; shrink-to-fit should find a
  // smaller allocation rather than pausing the job.
  std::vector<PlacedJob> result =
      Place(PlacementPolicy::kOptimusPack, {PJob(0, 8, 8)}, Uniform(2, 20));
  ASSERT_TRUE(result[0].placed);
  const Allocation eff = result[0].alloc;
  EXPECT_LT(eff.num_workers, 8);
  EXPECT_GE(eff.num_workers, 1);
}

TEST(PlacementTest, WithoutShrinkOversizedJobIsUnplaced) {
  std::vector<PlacedJob> result = Place(PlacementPolicy::kOptimusPack, {PJob(0, 8, 8)},
                                 Uniform(2, 20), /*shrink_to_fit=*/false);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_FALSE(result[0].placed);
  EXPECT_TRUE(result[0].placement.empty());
  EXPECT_TRUE(result[0].alloc == Allocation{});
}

TEST(PlacementTest, LoadBalanceSpreadsTasks) {
  std::vector<PlacedJob> result =
      Place(PlacementPolicy::kLoadBalance, {PJob(0, 2, 2)}, Uniform(4, 20));
  ASSERT_TRUE(result[0].placed);
  EXPECT_EQ(result[0].placement.used_servers.size(), 4u);  // one task per server
}

TEST(PlacementTest, TetrisPacksTightly) {
  // Pre-load one server so it has exactly the needed space: tightest-fit
  // should use it instead of opening empty servers.
  std::vector<Server> servers = Uniform(3, 20);
  servers[1].Allocate(Resources(10, 100, 0, 1));
  std::vector<PlacedJob> result =
      Place(PlacementPolicy::kTetrisPack, {PJob(0, 1, 1)}, servers);
  ASSERT_TRUE(result[0].placed);
  const JobPlacement& p = result[0].placement;
  EXPECT_EQ(p.used_servers, std::vector<int>{1});
  EXPECT_EQ(p.used_workers[0] + p.used_ps[0], 2);
}

TEST(PlacementTest, SmallestJobPlacedFirstAvoidsStarvation) {
  // One huge job and one tiny job compete for a small cluster; the tiny job
  // must be placed.
  std::vector<PlacedJob> result = Place(PlacementPolicy::kOptimusPack,
                                 {PJob(0, 6, 6), PJob(1, 1, 1)}, Uniform(2, 20));
  EXPECT_TRUE(result[1].placed);
}

TEST(PlacementTest, HeterogeneousServersHandled) {
  // Mixed 16-cpu and 8-cpu servers (the paper's testbed shape): a (4, 4) job
  // with 5-cpu tasks must use the capacity-aware spread.
  std::vector<Server> servers;
  servers.emplace_back(0, Resources(16, 80, 0, 1));
  servers.emplace_back(1, Resources(16, 80, 0, 1));
  servers.emplace_back(2, Resources(8, 48, 0, 1));
  servers.emplace_back(3, Resources(8, 48, 0, 1));
  std::vector<PlacedJob> result =
      Place(PlacementPolicy::kOptimusPack, {PJob(0, 4, 4)}, servers);
  ASSERT_TRUE(result[0].placed);
  EXPECT_TRUE(result[0].alloc == (Allocation{4, 4}));
}

TEST(PlacementTest, InactiveJobsSkipped) {
  std::vector<PlacedJob> result = Place(PlacementPolicy::kOptimusPack,
                                 {PJob(0, 0, 0), PJob(1, 1, 1)}, Uniform(2, 20));
  ASSERT_EQ(result.size(), 2u);
  EXPECT_FALSE(result[0].placed);
  EXPECT_TRUE(result[0].placement.empty());
  EXPECT_TRUE(result[1].placed);
}

// ---------------------------------------------------------------------------
// Packing reference: a fresh sort per attempt instead of the server heap
// ---------------------------------------------------------------------------

// Theorem 1's even spread over the first k candidates: PS and worker tasks
// interleave Bresenham-style, each to the fitting server with the fewest
// tasks of its kind, then the fewest tasks, then the most free CPU, then the
// earliest candidate. Commits only when every task fits.
bool RefSpread(const PlacementJobInput& job, const std::vector<size_t>& cand, size_t k,
               std::vector<Server>* servers, JobPlacement* out) {
  const int p = job.alloc.num_ps;
  const int total = p + job.alloc.num_workers;
  std::vector<Resources> used(k);
  std::vector<std::array<int, 2>> count(k, {0, 0});  // (workers, ps)
  for (int t = 0, ps_done = 0; t < total; ++t) {
    const int is_ps = (t + 1) * p / total > ps_done ? 1 : 0;
    ps_done += is_ps;
    const Resources& demand = is_ps ? job.ps_demand : job.worker_demand;
    const auto left = [&](size_t i) { return (*servers)[cand[i]].Free() - used[i]; };
    const auto rank = [&](size_t i) {
      return std::make_tuple(count[i][is_ps], count[i][0] + count[i][1], -left(i).cpu());
    };
    size_t best = k;
    for (size_t i = 0; i < k; ++i) {
      if (left(i).Fits(demand) && (best == k || rank(i) < rank(best))) {
        best = i;
      }
    }
    if (best == k) {
      return false;
    }
    used[best] += demand;
    ++count[best][is_ps];
  }
  std::vector<std::array<int, 3>> triples;  // (server, workers, ps)
  for (size_t i = 0; i < k; ++i) {
    if (count[i][0] + count[i][1] > 0) {
      (*servers)[cand[i]].Allocate(used[i]);
      triples.push_back({static_cast<int>(cand[i]), count[i][0], count[i][1]});
    }
  }
  std::sort(triples.begin(), triples.end());
  for (const auto& [server, w, ps] : triples) {
    out->used_servers.push_back(server);
    out->used_workers.push_back(w);
    out->used_ps.push_back(ps);
  }
  return true;
}

// Available servers in [begin, end) by free CPU, descending; ties go to the
// higher index (the global order) or the lower one (the in-rack order).
std::vector<size_t> RefCandidates(const std::vector<Server>& servers, size_t begin,
                                  size_t end, bool higher_index_first) {
  std::vector<size_t> out;
  for (size_t s = begin; s < end; ++s) {
    if (servers[s].available()) {
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [&](size_t a, size_t b) {
    const double fa = servers[a].Free().cpu();
    const double fb = servers[b].Free().cpu();
    return fa != fb ? fa > fb : (higher_index_first ? a > b : a < b);
  });
  return out;
}

// PlaceJobs' packing policies with shrink-to-fit, smallest dominant footprint
// first. Every attempt re-sorts its candidates and packs onto the smallest k
// of them. With racks, each rack is tried first, by descending free CPU
// (ties: lower rack); an attempt no rack holds counts in *fallbacks and
// takes the global order.
std::vector<PlacedJob> RefPlaceJobs(const std::vector<PlacementJobInput>& jobs,
                                    size_t rack_size, std::vector<Server>* servers,
                                    int* fallbacks) {
  const size_t n = servers->size();
  const Resources capacity = TotalCapacity(*servers);
  const auto share = [&](const PlacementJobInput& job) {
    return (job.worker_demand * job.alloc.num_workers + job.ps_demand * job.alloc.num_ps)
        .DominantShare(capacity);
  };
  std::vector<size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return share(jobs[a]) < share(jobs[b]); });
  const auto attempt = [&](const PlacementJobInput& job, JobPlacement* out) {
    const auto pack = [&](const std::vector<size_t>& cand) {
      const size_t tasks = static_cast<size_t>(job.alloc.num_ps + job.alloc.num_workers);
      for (size_t k = 1; k <= std::min(cand.size(), tasks); ++k) {
        if (RefSpread(job, cand, k, servers, out)) {
          return true;
        }
      }
      return false;
    };
    if (rack_size > 0) {
      std::vector<std::pair<double, size_t>> racks;  // (free CPU, first server)
      for (size_t begin = 0; begin < n; begin += rack_size) {
        double free_sum = 0.0;
        for (size_t s = begin; s < std::min(n, begin + rack_size); ++s) {
          free_sum += (*servers)[s].available() ? (*servers)[s].Free().cpu() : 0.0;
        }
        racks.push_back({free_sum, begin});
      }
      std::stable_sort(racks.begin(), racks.end(),
                       [](const auto& a, const auto& b) { return a.first > b.first; });
      for (const auto& [free_sum, begin] : racks) {
        if (pack(RefCandidates(*servers, begin, std::min(n, begin + rack_size), false))) {
          return true;
        }
      }
      ++*fallbacks;
    }
    return pack(RefCandidates(*servers, 0, n, true));
  };
  std::vector<PlacedJob> result(jobs.size());
  for (const size_t i : order) {
    PlacementJobInput job = jobs[i];
    while (!(result[i].placed = attempt(job, &result[i].placement)) &&
           (job.alloc.num_ps > 1 || job.alloc.num_workers > 1)) {
      job.alloc = {std::max(1, job.alloc.num_ps / 2), std::max(1, job.alloc.num_workers / 2)};
    }
    result[i].alloc = result[i].placed ? job.alloc : Allocation{};
  }
  return result;
}

TEST(PlacementTest, OptimusPackMatchesResortReference) {
  Rng rng(17);
  const int n_servers = 64;
  int fallbacks = 0;
  for (const auto& [policy, rack_size] : {std::pair{PlacementPolicy::kOptimusPack, 0},
                                          std::pair{PlacementPolicy::kRackPack, 4}}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::string label =
          std::string(PlacementPolicyName(policy)) + " trial " + std::to_string(trial);
      // Uneven starting load, so free-CPU ties occur, and one dead server,
      // which no candidate list may hold. In-rack placements leave the
      // global heap's keys stale for the fallbacks that follow.
      std::vector<Server> servers = BuildUniformCluster(n_servers, Resources(16, 80, 0, 1));
      for (Server& server : servers) {
        server.Allocate(Resources(2.5, 10, 0, 0.15) *
                        static_cast<double>(rng.UniformInt(0, 3)));
      }
      servers[static_cast<size_t>(rng.UniformInt(0, n_servers - 1))].SetAvailable(false);
      std::vector<PlacementJobInput> jobs;
      for (int j = 0; j < 48; ++j) {
        jobs.push_back(PJob(j, static_cast<int>(rng.UniformInt(1, 4)),
                            static_cast<int>(rng.UniformInt(1, 8)), 2.5));
        if (j % 3 == 0) {
          jobs.back().ps_demand = Resources(1.5, 8, 0, 0.1);
        }
      }

      std::vector<Server> ref_servers = servers;
      const std::vector<PlacedJob> want =
          RefPlaceJobs(jobs, static_cast<size_t>(rack_size), &ref_servers, &fallbacks);
      const std::vector<PlacedJob> got =
          PlaceJobs(policy, jobs, &servers, /*shrink_to_fit=*/true, rack_size);
      ASSERT_EQ(got.size(), want.size()) << label;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].placed, want[i].placed) << label << " job " << i;
        EXPECT_TRUE(got[i].alloc == want[i].alloc) << label << " job " << i;
        EXPECT_EQ(got[i].placement.used_servers, want[i].placement.used_servers) << label;
        EXPECT_EQ(got[i].placement.used_workers, want[i].placement.used_workers) << label;
        EXPECT_EQ(got[i].placement.used_ps, want[i].placement.used_ps) << label;
      }
      for (int s = 0; s < n_servers; ++s) {
        EXPECT_TRUE(servers[s].Free() == ref_servers[s].Free()) << label << " server " << s;
      }
    }
  }
  // Some rack-pack attempts must reach the global fallback.
  EXPECT_GT(fallbacks, 0);
}

// A state kept across rounds must reproduce, round for round, PlaceJobs on a
// fresh copy of the round-start servers. It restores only the servers the
// last round touched, including the per-task policies' rolled-back attempts
// (with these demands (u + d) - d need not equal u bitwise), and rebuilds
// when a server goes down or up or the background share moves.
TEST(PlacementTest, PersistentStateMatchesFreshCopyAcrossRounds) {
  constexpr int kServers = 48;
  constexpr int kRounds = 24;
  const std::array<double, 4> shares = {0.0, 0.23, 0.29, 0.31};
  int rack_rounds_mixed = 0;  // rack-pack rounds with in-rack jobs and spills
  for (const auto& [policy, rack_size] : {std::pair{PlacementPolicy::kOptimusPack, 0},
                                          std::pair{PlacementPolicy::kLoadBalance, 0},
                                          std::pair{PlacementPolicy::kTetrisPack, 0},
                                          std::pair{PlacementPolicy::kRackPack, 4}}) {
    Rng rng(31 + static_cast<uint64_t>(policy));
    std::vector<Server> base;
    for (int s = 0; s < kServers; ++s) {
      base.emplace_back(s, s % 3 == 0 ? Resources(12, 64, 0, 1) : Resources(16, 80, 0, 1));
    }
    PlacementState state;
    double share = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      const std::string label =
          std::string(PlacementPolicyName(policy)) + " round " + std::to_string(round);
      if (round > 0 && rng.Bernoulli(0.4)) {
        Server& flipped = base[static_cast<size_t>(rng.UniformInt(0, kServers - 1))];
        flipped.SetAvailable(!flipped.available());
        state.Invalidate();
      }
      if (rng.Bernoulli(0.3)) {
        share = shares[static_cast<size_t>(rng.UniformInt(0, 3))];
      }
      std::vector<PlacementJobInput> jobs;
      const int num_jobs = static_cast<int>(rng.UniformInt(8, 24));
      for (int j = 0; j < num_jobs; ++j) {
        jobs.push_back(PJob(j, static_cast<int>(rng.UniformInt(1, 6)),
                            static_cast<int>(rng.UniformInt(1, 16)),
                            1.3 + 0.1 * static_cast<double>(rng.UniformInt(0, 12))));
        jobs.back().ps_demand = Resources(1.9, 6.1, 0, 0.03);
      }
      // Its workers need a GPU no server has, so each per-task attempt
      // commits PS tasks and rolls them back.
      jobs.push_back(PJob(num_jobs, 6, 1, 2.5));
      jobs.back().worker_demand = Resources(2.5, 10, 1, 0.1);
      jobs.back().ps_demand = Resources(1.9, 6.1, 0, 0.03);

      std::vector<Server> fresh = base;
      for (Server& server : fresh) {
        if (share > 0.0 && server.available()) {
          server.Allocate(server.capacity() * share);
        }
      }
      const std::vector<PlacedJob> want =
          PlaceJobs(policy, jobs, &fresh, /*shrink_to_fit=*/true, rack_size);
      state.BeginRound(base, share);
      const std::vector<PlacedJob> got =
          PlaceJobs(policy, jobs, &state, /*shrink_to_fit=*/true, rack_size);

      ASSERT_EQ(got.size(), want.size()) << label;
      bool in_rack = false;
      bool spilled = false;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].placed, want[i].placed) << label << " job " << i;
        EXPECT_TRUE(got[i].alloc == want[i].alloc) << label << " job " << i;
        EXPECT_EQ(got[i].placement.used_servers, want[i].placement.used_servers) << label;
        EXPECT_EQ(got[i].placement.used_workers, want[i].placement.used_workers) << label;
        EXPECT_EQ(got[i].placement.used_ps, want[i].placement.used_ps) << label;
        const std::vector<int>& used = got[i].placement.used_servers;
        if (rack_size > 0 && !used.empty()) {
          const bool one_rack = used.front() / rack_size == used.back() / rack_size;
          in_rack |= one_rack;
          spilled |= !one_rack;
        }
      }
      for (size_t s = 0; s < fresh.size(); ++s) {
        EXPECT_EQ(state.servers()[s].available(), fresh[s].available()) << label << " " << s;
        EXPECT_TRUE(state.servers()[s].Free() == fresh[s].Free()) << label << " server " << s;
      }
      // A spill after in-rack placements pops servers whose keys went stale.
      rack_rounds_mixed += in_rack && spilled ? 1 : 0;
    }
  }
  EXPECT_GT(rack_rounds_mixed, 0);
}

}  // namespace
}  // namespace optimus
