// Allocation guards for the steady-state scheduling round.
//
// This binary replaces the global operator new with a counting one, so each
// case can assert how many heap allocations a piece of the round makes. The
// counter lives in this file only; no other target links it.
//
// The bounds pin the flat, reused round state: the auditor tracker re-places
// a job without allocating, placement allocates only each placed job's three
// placement vectors plus a fixed per-call amount, and the Optimus allocator
// stays within a few allocations per job for the memoized estimate kinds and
// within a fixed per-round amount for the closed-form ones.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/perfmodel/speed_model.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sched/speed_surface.h"
#include "src/sim/invariant_auditor.h"
#include "tests/test_speeds.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_bytes{0};

void* CountedAlloc(size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  }
  const size_t a = static_cast<size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

// Out of line so the compiler does not pair an inlined free() with the
// operator new at a call site and warn about a mismatch.
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { CountedFree(p); }

namespace optimus {
namespace {

// Counts the heap allocations (and their bytes) made between construction
// and Stop().
class AllocationCount {
 public:
  AllocationCount() {
    g_allocations.store(0);
    g_bytes.store(0);
    g_counting.store(true);
  }
  ~AllocationCount() { g_counting.store(false); }
  int64_t Stop() {
    g_counting.store(false);
    return g_allocations.load();
  }
  int64_t bytes() const { return g_bytes.load(); }
};

JobPlacement Spread(int first_server, int num_servers) {
  JobPlacement placement;
  for (int s = first_server; s < first_server + num_servers; ++s) {
    placement.used_servers.push_back(s);
    placement.used_workers.push_back(2);
    placement.used_ps.push_back(1);
  }
  return placement;
}

TEST(RoundAllocTest, AuditorReplacementAllocatesNothing) {
  const Resources demand(1, 4, 0, 0.1);
  std::vector<Server> servers = BuildUniformCluster(64, Resources(64, 256, 0, 10));
  const JobPlacement neighbour = Spread(0, 16);
  const JobPlacement left = Spread(0, 8);
  const JobPlacement right = Spread(8, 8);
  const JobPlacement right_small = Spread(10, 5);

  InvariantAuditor auditor;
  auditor.SetClusterSize(servers.size());
  auditor.SetPlacement(5, demand, demand, neighbour);
  // Warm-up rounds: job 9 alternates between two server sets, with the
  // incremental check clearing the dirty list between rounds, as in the
  // simulator.
  std::vector<InvariantAuditor::JobView> views;
  InvariantAuditor::Counts counts;
  for (int round = 0; round < 3; ++round) {
    auditor.SetPlacement(9, demand, demand, left);
    auditor.CheckIncremental(600.0 * round, servers, views, counts);
    auditor.SetPlacement(9, demand, demand, right);
    auditor.CheckIncremental(600.0 * round + 300.0, servers, views, counts);
  }

  // Re-placing the tracked job onto different servers, no more of them than
  // before, reuses every buffer.
  {
    AllocationCount count;
    auditor.SetPlacement(9, demand, demand, left);
    EXPECT_EQ(count.Stop(), 0);
  }
  {
    AllocationCount count;
    auditor.SetPlacement(9, demand, demand, right_small);
    EXPECT_EQ(count.Stop(), 0);
  }
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
}

// 500 jobs of 2 to 8 tasks, every one placeable on the clusters below.
std::vector<PlacementJobInput> PackJobs() {
  std::vector<PlacementJobInput> jobs;
  for (int j = 0; j < 500; ++j) {
    PlacementJobInput job;
    job.job_id = j;
    job.alloc = {1 + j % 3, 1 + j % 5};
    job.worker_demand = Resources(2.5 + 0.5 * (j % 4), 10, 0, 0.15);
    job.ps_demand = Resources(2.5, 10, 0, 0.15);
    jobs.push_back(job);
  }
  return jobs;
}

int64_t NumPlaced(const std::vector<PlacedJob>& placed) {
  int64_t num_placed = 0;
  for (const PlacedJob& p : placed) {
    num_placed += p.placed ? 1 : 0;
  }
  return num_placed;
}

TEST(RoundAllocTest, OptimusPackAllocatesOnlyThePlacements) {
  const std::vector<PlacementJobInput> jobs = PackJobs();
  std::vector<Server> servers = BuildUniformCluster(2000, Resources(16, 80, 0, 1));

  AllocationCount count;
  const std::vector<PlacedJob> placed =
      PlaceJobs(PlacementPolicy::kOptimusPack, jobs, &servers);
  const int64_t allocations = count.Stop();

  const int64_t num_placed = NumPlaced(placed);
  ASSERT_EQ(num_placed, 500);
  EXPECT_LE(allocations, 3 * num_placed + 32)
      << allocations << " allocations for " << num_placed << " placed jobs";
}

// A round on a state kept from the previous round neither copies the cluster
// nor allocates any buffer sized by it: its allocations are those of the
// placements, and its bytes stay below one server-indexed order.
TEST(RoundAllocTest, PersistentStateRoundAllocatesOnlyThePlacements) {
  constexpr size_t kServers = 20000;
  const std::vector<PlacementJobInput> jobs = PackJobs();
  const std::vector<Server> base =
      BuildUniformCluster(static_cast<int>(kServers), Resources(16, 80, 0, 1));
  PlacementState state;
  state.BeginRound(base, 0.0);
  ASSERT_EQ(NumPlaced(PlaceJobs(PlacementPolicy::kOptimusPack, jobs, &state)), 500);

  AllocationCount count;
  state.BeginRound(base, 0.0);
  const std::vector<PlacedJob> placed = PlaceJobs(PlacementPolicy::kOptimusPack, jobs, &state);
  const int64_t allocations = count.Stop();

  const int64_t num_placed = NumPlaced(placed);
  ASSERT_EQ(num_placed, 500);
  EXPECT_LE(allocations, 3 * num_placed + 32)
      << allocations << " allocations for " << num_placed << " placed jobs";
  EXPECT_LT(count.bytes(),
            static_cast<int64_t>(kServers * sizeof(std::pair<double, size_t>)))
      << count.bytes() << " bytes allocated by the second round";
}

TEST(RoundAllocTest, OptimusAllocatorStaysWithinFourPerJob) {
  constexpr int kJobs = 500;
  std::vector<SchedJob> jobs;
  for (int j = 0; j < kJobs; ++j) {
    SchedJob job;
    job.job_id = j;
    job.worker_demand = Resources(2, 8, 0, 0.1);
    job.ps_demand = Resources(2, 8, 0, 0.1);
    job.max_ps = 8;
    job.max_workers = 8;
    job.remaining_epochs = 50.0 + j;
    const double scale = 1.0 + 0.01 * j;
    // Saturating speed: workers help until the PS side becomes the bottleneck.
    job.speed = KeepSpeed([scale](int p, int w) {
      return scale * w / (1.0 + 0.15 * w + 0.4 * w / p);
    });
    jobs.push_back(job);
  }
  // Far more capacity than any path needs: a slack round.
  const Resources capacity(1e6, 1e7, 0, 1e5);
  OptimusAllocRoundStats stats;
  const OptimusAllocator allocator(&stats);
  SpeedSurfaceSet surfaces;

  AllocationCount count;
  const std::vector<Allocation> result = allocator.Allocate(jobs, capacity, &surfaces);
  const int64_t allocations = count.Stop();

  ASSERT_EQ(result.size(), jobs.size());
  int active = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    active += ActiveAllocation(result[i], jobs[i].comm) ? 1 : 0;
  }
  EXPECT_EQ(active, kJobs);
  EXPECT_EQ(stats.unfittable_drops, 0);
  EXPECT_GT(stats.grants, kJobs);
  EXPECT_LE(allocations, 4 * kJobs + 32)
      << allocations << " allocations for " << kJobs << " jobs";
}

TEST(RoundAllocTest, FittedRoundAllocatesPerRoundNotPerJob) {
  // Fitted estimates are evaluated inline: no surface, grid or closure per
  // job, only the round's own vectors.
  SpeedModel model(TrainingMode::kSync, 256);
  for (const auto& [p, w, speed] :
       {std::tuple{1, 1, 2.0}, {2, 4, 5.5}, {4, 4, 6.0}, {4, 8, 8.5}, {8, 8, 9.0}}) {
    model.AddSample(p, w, speed);
  }
  ASSERT_TRUE(model.Fit());
  constexpr int kJobs = 500;
  std::vector<SchedJob> jobs;
  for (int j = 0; j < kJobs; ++j) {
    SchedJob job;
    job.job_id = j;
    job.worker_demand = Resources(2, 8, 0, 0.1);
    job.ps_demand = Resources(2, 8, 0, 0.1);
    job.max_ps = 8;
    job.max_workers = 8;
    job.remaining_epochs = 50.0 + j;
    job.speed = SpeedEstimate::Fitted(model, 100.0 + j, /*pin_ps=*/false);
    jobs.push_back(job);
  }
  // Far more capacity than any path needs: a slack round.
  const Resources capacity(1e6, 1e7, 0, 1e5);
  OptimusAllocRoundStats stats;
  const OptimusAllocator allocator(&stats);
  SpeedSurfaceSet surfaces;

  AllocationCount count;
  const std::vector<Allocation> result = allocator.Allocate(jobs, capacity, &surfaces);
  const int64_t allocations = count.Stop();

  ASSERT_EQ(result.size(), jobs.size());
  EXPECT_EQ(surfaces.num_surfaces(), 0u);
  EXPECT_EQ(stats.unfittable_drops, 0);
  EXPECT_GT(stats.grants, kJobs);
  EXPECT_GT(surfaces.evals(), 0);
  EXPECT_EQ(surfaces.probes(), surfaces.evals());
  EXPECT_LE(allocations, 32) << allocations << " allocations for " << kJobs << " jobs";
}

}  // namespace
}  // namespace optimus
