#include "src/sched/placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace optimus {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kOptimusPack:
      return "optimus-pack";
    case PlacementPolicy::kLoadBalance:
      return "load-balance";
    case PlacementPolicy::kTetrisPack:
      return "tetris-pack";
    case PlacementPolicy::kRackPack:
      return "rack-pack";
  }
  return "unknown";
}

namespace {

// Keeps servers ordered by free CPU (descending) across many job placements:
// one lazily-invalidated max-heap of (free_cpu, server index), so placing J
// jobs on N servers costs O((J * k + updates) log N) instead of re-sorting N
// servers per job. An entry goes stale when kRackPack's in-rack attempt
// places onto its server, and placement only ever lowers free CPU, so a
// stale key over-estimates: re-keying a stale top until it is fresh pops the
// largest fresh key, ties going to the higher index.
class ServerHeap {
 public:
  explicit ServerHeap(std::vector<Server>* servers) : servers_(servers) {
    heap_.reserve(servers_->size());
    for (size_t s = 0; s < servers_->size(); ++s) {
      // Crashed servers never enter the heap; availability does not change
      // within one PlaceJobs call.
      if ((*servers_)[s].available()) {
        heap_.push_back({(*servers_)[s].Free().cpu(), s});
      }
    }
    std::make_heap(heap_.begin(), heap_.end());
  }

  // Pops up to `count` distinct servers in descending (free_cpu, index)
  // order, appending to *out.
  void PopMostFree(size_t count, std::vector<size_t>* out) {
    while (out->size() < count && EnsureValidTop()) {
      std::pop_heap(heap_.begin(), heap_.end());
      out->push_back(heap_.back().second);
      heap_.pop_back();
    }
  }

  // Returns servers to the heap (with their current free values).
  void Push(const std::vector<size_t>& servers) {
    for (size_t s : servers) {
      heap_.push_back({(*servers_)[s].Free().cpu(), s});
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

 private:
  // Re-keys stale entries until the top is fresh; false when the heap is
  // drained.
  bool EnsureValidTop() {
    while (!heap_.empty()) {
      const auto [free_cpu, s] = heap_.front();
      if (free_cpu == (*servers_)[s].Free().cpu()) {
        return true;
      }
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = {(*servers_)[s].Free().cpu(), s};
      std::push_heap(heap_.begin(), heap_.end());
    }
    return false;
  }

  std::vector<Server>* servers_;
  std::vector<std::pair<double, size_t>> heap_;
};

// Reusable per-job working buffers so steady-state placement allocates
// nothing per job.
struct PackScratch {
  std::vector<size_t> candidates;         // servers to pack onto, in order
  std::vector<Resources> free;            // cached Free() per candidate
  std::vector<Resources> prefix_free;     // prefix sums of `free`
  std::vector<Resources> tentative_used;  // per-candidate committed demand
  std::vector<int> tentative_w;
  std::vector<int> tentative_p;
  // (server, workers, ps) of a successful attempt, sorted by server id.
  struct Used {
    int server;
    int w;
    int p;
  };
  std::vector<Used> used;
};

// Attempts to place a job across the first k candidates, spreading parameter
// servers and workers as evenly as the servers' free capacities allow
// (Theorem 1 wants equal counts per server; on heterogeneous servers we
// approximate it by always extending the least-loaded server that still
// fits). PS and worker assignments are interleaved proportionally so both
// types end up spread. Commits resources and appends the compact triples
// (ascending server id) on success; servers are untouched on failure.
bool TryEvenPlacement(const PlacementJobInput& job, int k, std::vector<Server>* servers,
                      PackScratch* scratch, JobPlacement* placement) {
  const int w = job.alloc.num_workers;
  const int p = job.alloc.num_ps;
  const int total = w + p;
  const std::vector<size_t>& order = scratch->candidates;
  const std::vector<Resources>& free = scratch->free;

  scratch->tentative_used.assign(static_cast<size_t>(k), Resources());
  scratch->tentative_w.assign(static_cast<size_t>(k), 0);
  scratch->tentative_p.assign(static_cast<size_t>(k), 0);
  std::vector<Resources>& tentative_used = scratch->tentative_used;
  std::vector<int>& tentative_w = scratch->tentative_w;
  std::vector<int>& tentative_p = scratch->tentative_p;

  int assigned_ps = 0;
  for (int t = 0; t < total; ++t) {
    // Bresenham-style interleaving keeps the PS:worker mix even as we go.
    const bool is_ps = (t + 1) * p / total > assigned_ps;
    const Resources& demand = is_ps ? job.ps_demand : job.worker_demand;

    // Pick, among the k servers that can still fit this task, the one with
    // the fewest tasks of this *type* (Theorem 1 balances PS and worker
    // counts independently), breaking ties by total tasks, then by most free
    // capacity. Servers are not mutated before the commit below, so the
    // cached free vectors are exact.
    int best = -1;
    for (int i = 0; i < k; ++i) {
      const size_t ui = static_cast<size_t>(i);
      if (!(free[ui] - tentative_used[ui]).Fits(demand)) {
        continue;
      }
      if (best < 0) {
        best = i;
        continue;
      }
      const size_t ub = static_cast<size_t>(best);
      const int type_i = is_ps ? tentative_p[ui] : tentative_w[ui];
      const int type_b = is_ps ? tentative_p[ub] : tentative_w[ub];
      const int tasks_i = tentative_w[ui] + tentative_p[ui];
      const int tasks_b = tentative_w[ub] + tentative_p[ub];
      const double free_i = (free[ui] - tentative_used[ui]).cpu();
      const double free_b = (free[ub] - tentative_used[ub]).cpu();
      if (type_i < type_b ||
          (type_i == type_b &&
           (tasks_i < tasks_b || (tasks_i == tasks_b && free_i > free_b)))) {
        best = i;
      }
    }
    if (best < 0) {
      return false;  // this task fits on none of the k servers
    }
    const size_t ub = static_cast<size_t>(best);
    tentative_used[ub] += demand;
    if (is_ps) {
      ++tentative_p[ub];
      ++assigned_ps;
    } else {
      ++tentative_w[ub];
    }
  }

  // Commit in candidate order, then emit the triples sorted by server id —
  // the order ForEachUsed promises.
  using Used = PackScratch::Used;
  std::vector<Used>& used = scratch->used;
  used.clear();
  for (size_t i = 0; i < static_cast<size_t>(k); ++i) {
    if (tentative_w[i] == 0 && tentative_p[i] == 0) {
      continue;
    }
    (*servers)[order[i]].Allocate(tentative_used[i]);
    used.push_back({static_cast<int>(order[i]), tentative_w[i], tentative_p[i]});
  }
  std::sort(used.begin(), used.end(),
            [](const Used& a, const Used& b) { return a.server < b.server; });
  placement->used_servers.reserve(used.size());
  placement->used_workers.reserve(used.size());
  placement->used_ps.reserve(used.size());
  for (const Used& u : used) {
    placement->used_servers.push_back(u.server);
    placement->used_workers.push_back(u.w);
    placement->used_ps.push_back(u.p);
  }
  return true;
}

// Packs the job onto the smallest k for which the first k of
// scratch->candidates can host it; returns false when no k works.
bool PackOntoCandidates(const PlacementJobInput& job, std::vector<Server>* servers,
                        PackScratch* scratch, JobPlacement* placement) {
  const int tasks = job.alloc.num_workers + job.alloc.num_ps;
  const int max_k = std::min<int>(static_cast<int>(scratch->candidates.size()), tasks);
  scratch->free.resize(static_cast<size_t>(max_k));
  scratch->prefix_free.resize(static_cast<size_t>(max_k));
  Resources running;
  for (size_t i = 0; i < static_cast<size_t>(max_k); ++i) {
    scratch->free[i] = (*servers)[scratch->candidates[i]].Free();
    running += scratch->free[i];
    scratch->prefix_free[i] = running;
  }

  // Sound lower bound: if the total free capacity of the first k candidates
  // cannot hold the job's whole demand (with a generous slack for the
  // floating-point accumulation), TryEvenPlacement must fail at k — every
  // task reserves its full demand on some candidate — so the attempt can be
  // skipped without changing the first k that succeeds. The 1e-6 relative
  // slack dwarfs both the Fits() epsilon and any summation error, so a k
  // that could succeed is never skipped.
  const Resources total_demand =
      job.worker_demand * job.alloc.num_workers + job.ps_demand * job.alloc.num_ps;
  const Resources demand_floor = total_demand * (1.0 - 1e-6);
  for (int k = 1; k <= max_k; ++k) {
    if (scratch->prefix_free[static_cast<size_t>(k - 1)].Fits(demand_floor) &&
        TryEvenPlacement(job, k, servers, scratch, placement)) {
      return true;
    }
  }
  return false;
}

// Places one job under the Optimus scheme: candidates are drawn in
// descending-availability order (the paper's sort) and the job is packed
// onto the first k of them for growing k.
bool PlaceOptimus(const PlacementJobInput& job, std::vector<Server>* servers,
                  ServerHeap* heap, PackScratch* scratch,
                  JobPlacement* placement) {
  const size_t max_k = std::min<size_t>(
      servers->size(), static_cast<size_t>(job.alloc.num_workers + job.alloc.num_ps));
  scratch->candidates.clear();
  heap->PopMostFree(max_k, &scratch->candidates);
  const bool placed = PackOntoCandidates(job, servers, scratch, placement);
  heap->Push(scratch->candidates);
  return placed;
}

// Rack-aware Theorem-1 variant: tries to pack the whole job under one edge
// switch so its traffic never crosses a rack uplink. Racks are tried in
// descending free-CPU order (ties: lower rack id first); within a rack,
// candidates are its available servers in descending (free_cpu, lower index
// first) order, packed onto the smallest k that fits. When no single rack
// can hold the job, falls back to the global Optimus scheme.
bool PlaceRackAware(const PlacementJobInput& job, int rack_size,
                    std::vector<Server>* servers, ServerHeap* heap,
                    PackScratch* scratch, JobPlacement* placement) {
  if (rack_size <= 0) {
    return PlaceOptimus(job, servers, heap, scratch, placement);
  }
  const int n = static_cast<int>(servers->size());
  const int num_racks = (n + rack_size - 1) / rack_size;

  std::vector<std::pair<double, int>> rack_order;  // (free cpu sum, rack)
  rack_order.reserve(static_cast<size_t>(num_racks));
  for (int r = 0; r < num_racks; ++r) {
    double free_sum = 0.0;
    const int begin = r * rack_size;
    const int end = std::min(n, begin + rack_size);
    for (int s = begin; s < end; ++s) {
      if ((*servers)[static_cast<size_t>(s)].available()) {
        free_sum += (*servers)[static_cast<size_t>(s)].Free().cpu();
      }
    }
    rack_order.push_back({free_sum, r});
  }
  std::stable_sort(rack_order.begin(), rack_order.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<size_t>& candidates = scratch->candidates;
  for (const auto& [free_sum, r] : rack_order) {
    candidates.clear();
    const int begin = r * rack_size;
    const int end = std::min(n, begin + rack_size);
    for (int s = begin; s < end; ++s) {
      if ((*servers)[static_cast<size_t>(s)].available()) {
        candidates.push_back(static_cast<size_t>(s));
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
      return (*servers)[a].Free().cpu() > (*servers)[b].Free().cpu();
    });
    if (PackOntoCandidates(job, servers, scratch, placement)) {
      return true;
    }
  }
  // No rack can hold the job alone: spill across racks the Theorem-1 way.
  return PlaceOptimus(job, servers, heap, scratch, placement);
}

enum class PickRule { kMostFree, kTightestFit };

// Places a job one task at a time using a server-picking rule; rolls back on
// failure so the servers are unchanged when false is returned.
bool PlacePerTask(const PlacementJobInput& job, PickRule rule,
                  std::vector<Server>* servers, JobPlacement* placement) {
  struct Step {
    size_t server;
    Resources demand;
    bool is_ps;
  };
  std::vector<Step> committed;

  auto pick = [&](const Resources& demand) -> int {
    int best = -1;
    double best_key = rule == PickRule::kMostFree
                          ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < servers->size(); ++s) {
      const Server& server = (*servers)[s];
      if (!server.CanFit(demand)) {
        continue;
      }
      // Key on free CPU: most-free spreads load (Kubernetes default);
      // tightest-fit packs to minimize fragmentation (Tetris).
      const double key = server.Free().cpu();
      const bool better =
          rule == PickRule::kMostFree ? key > best_key : key < best_key;
      if (better) {
        best_key = key;
        best = static_cast<int>(s);
      }
    }
    return best;
  };

  auto place_tasks = [&](int count, const Resources& demand, bool is_ps) {
    for (int t = 0; t < count; ++t) {
      const int s = pick(demand);
      if (s < 0) {
        return false;
      }
      (*servers)[static_cast<size_t>(s)].Allocate(demand);
      committed.push_back({static_cast<size_t>(s), demand, is_ps});
    }
    return true;
  };

  // Interleave PS and worker placement so colocations arise naturally.
  if (place_tasks(job.alloc.num_ps, job.ps_demand, /*is_ps=*/true) &&
      place_tasks(job.alloc.num_workers, job.worker_demand, /*is_ps=*/false)) {
    std::sort(committed.begin(), committed.end(),
              [](const Step& a, const Step& b) { return a.server < b.server; });
    for (const Step& step : committed) {
      const int s = static_cast<int>(step.server);
      if (placement->used_servers.empty() || placement->used_servers.back() != s) {
        placement->used_servers.push_back(s);
        placement->used_workers.push_back(0);
        placement->used_ps.push_back(0);
      }
      ++(step.is_ps ? placement->used_ps : placement->used_workers).back();
    }
    return true;
  }
  for (const Step& step : committed) {
    (*servers)[step.server].Release(step.demand);
  }
  return false;
}

}  // namespace

std::vector<PlacedJob> PlaceJobs(PlacementPolicy policy,
                                 const std::vector<PlacementJobInput>& jobs,
                                 std::vector<Server>* servers_in, bool shrink_to_fit,
                                 int rack_size) {
  std::vector<PlacedJob> result(jobs.size());
  std::vector<Server>& servers = *servers_in;

  // Smallest jobs first (total dominant footprint) to avoid starving them.
  // Each footprint is computed once, before the sort.
  const Resources capacity = TotalCapacity(servers);
  std::vector<double> footprint(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const PlacementJobInput& job = jobs[i];
    const Resources total = job.worker_demand * job.alloc.num_workers +
                            job.ps_demand * job.alloc.num_ps;
    footprint[i] = total.DominantShare(capacity);
  }
  std::vector<size_t> job_order(jobs.size());
  std::iota(job_order.begin(), job_order.end(), 0);
  std::stable_sort(job_order.begin(), job_order.end(),
                   [&](size_t a, size_t b) { return footprint[a] < footprint[b]; });

  ServerHeap heap(&servers);
  PackScratch scratch;
  for (size_t idx : job_order) {
    PlacementJobInput job = jobs[idx];
    if (!ActiveAllocation(job.alloc, job.comm)) {
      continue;  // job got no resources this interval; nothing to place
    }

    // Failed attempts leave the placement empty, so one object serves every
    // shrink retry.
    PlacedJob& out = result[idx];
    JobPlacement* placement = &out.placement;
    bool placed = false;
    while (true) {
      switch (policy) {
        case PlacementPolicy::kOptimusPack:
          placed = PlaceOptimus(job, &servers, &heap, &scratch, placement);
          break;
        case PlacementPolicy::kLoadBalance:
          placed = PlacePerTask(job, PickRule::kMostFree, &servers, placement);
          break;
        case PlacementPolicy::kTetrisPack:
          placed = PlacePerTask(job, PickRule::kTightestFit, &servers, placement);
          break;
        case PlacementPolicy::kRackPack:
          placed = PlaceRackAware(job, rack_size, &servers, &heap, &scratch, placement);
          break;
      }
      if (placed || !shrink_to_fit ||
          (job.alloc.num_ps <= 1 && job.alloc.num_workers == 1)) {
        break;
      }
      job.alloc.num_ps =
          job.alloc.num_ps > 0 ? std::max(1, job.alloc.num_ps / 2) : 0;
      job.alloc.num_workers = std::max(1, job.alloc.num_workers / 2);
    }

    if (placed) {
      out.placed = true;
      out.alloc = job.alloc;
    }
  }
  return result;
}

}  // namespace optimus
