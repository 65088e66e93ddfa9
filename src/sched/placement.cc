#include "src/sched/placement.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "src/common/logging.h"

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

// Pops servers in descending (free CPU, index) order (ties: higher index
// first) by merging the state's round-start order with a small lazy max-heap
// of the servers popped from it, so a round pays for the servers it reaches,
// not for the cluster. An entry goes stale when kRackPack's in-rack attempt
// places onto its server; placement only ever lowers free CPU, so a stale key
// over-estimates, and re-keying a stale top (into the heap) until the larger
// of the two tops is fresh pops the largest fresh key.
class ServerHeap {
 public:
  ServerHeap(const std::vector<Server>& servers,
             const std::vector<std::pair<double, size_t>>& order,
             std::vector<std::pair<double, size_t>>* heap)
      : servers_(servers), order_(order), heap_(*heap) {
    heap_.clear();
  }

  // Pops the most-free server into *out; false when none is left.
  bool Pop(size_t* out) {
    while (next_ < order_.size() || !heap_.empty()) {
      std::pair<double, size_t> top;
      if (next_ < order_.size() && (heap_.empty() || order_[next_] > heap_.front())) {
        top = order_[next_++];
      } else {
        std::pop_heap(heap_.begin(), heap_.end());
        top = heap_.back();
        heap_.pop_back();
      }
      if (top.first == FreeCpu(top.second)) {
        *out = top.second;
        return true;
      }
      Push(top.second);  // stale: re-key
    }
    return false;
  }

  // Returns a popped server (with its current free CPU).
  void Push(size_t s) {
    heap_.push_back({FreeCpu(s), s});
    std::push_heap(heap_.begin(), heap_.end());
  }

 private:
  double FreeCpu(size_t s) const { return servers_[s].Free().cpu(); }

  const std::vector<Server>& servers_;
  const std::vector<std::pair<double, size_t>>& order_;
  std::vector<std::pair<double, size_t>>& heap_;
  size_t next_ = 0;  // order_ entries before it have been popped
};

// Reusable per-job working buffers so steady-state placement allocates
// nothing per job. Reserve sizes every buffer for the call's largest job.
struct PackScratch {
  void Reserve(size_t max_tasks) {
    candidates.reserve(max_tasks);
    free.reserve(max_tasks);
    tentative_used.reserve(max_tasks);
    tentative_w.reserve(max_tasks);
    tentative_p.reserve(max_tasks);
    used.reserve(max_tasks);
  }

  std::vector<size_t> candidates;         // servers to pack onto, in order
  std::vector<Resources> free;            // cached Free() per candidate
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
bool TryEvenPlacement(const PlacementJobInput& job, int k, PlacementState* state,
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
    state->Allocate(order[i], tentative_used[i]);
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

// Packs the job onto the smallest k for which the first k candidates can
// host it; returns false when no k works. Candidates are scratch->candidates
// and, when `heap` is given, the servers popped from it one at a time as k
// outgrows them.
bool PackOntoCandidates(const PlacementJobInput& job, PlacementState* state, ServerHeap* heap,
                        PackScratch* scratch, JobPlacement* placement) {
  std::vector<size_t>& candidates = scratch->candidates;
  const size_t tasks = static_cast<size_t>(job.alloc.num_workers + job.alloc.num_ps);
  const size_t max_k = heap != nullptr ? tasks : std::min(candidates.size(), tasks);
  scratch->free.clear();

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
  Resources prefix_free;
  for (size_t k = 1; k <= max_k; ++k) {
    if (candidates.size() < k) {
      size_t s;
      if (!heap->Pop(&s)) {
        return false;
      }
      candidates.push_back(s);
    }
    scratch->free.push_back(state->servers()[candidates[k - 1]].Free());
    prefix_free += scratch->free.back();
    if (prefix_free.Fits(demand_floor) &&
        TryEvenPlacement(job, static_cast<int>(k), state, scratch, placement)) {
      return true;
    }
  }
  return false;
}

// Places one job under the Optimus scheme: candidates are drawn in
// descending-availability order (the paper's sort) as the job is packed onto
// the first k of them for growing k, then returned to the heap.
bool PlaceOptimus(const PlacementJobInput& job, PlacementState* state, ServerHeap* heap,
                  PackScratch* scratch, JobPlacement* placement) {
  scratch->candidates.clear();
  const bool placed = PackOntoCandidates(job, state, heap, scratch, placement);
  for (size_t s : scratch->candidates) {
    heap->Push(s);
  }
  return placed;
}

// Rack-aware Theorem-1 variant: tries to pack the whole job under one edge
// switch so its traffic never crosses a rack uplink. Racks are tried in
// descending free-CPU order (ties: lower rack id first); within a rack,
// candidates are its available servers in descending (free_cpu, lower index
// first) order, packed onto the smallest k that fits. When no single rack
// can hold the job, falls back to the global Optimus scheme.
bool PlaceRackAware(const PlacementJobInput& job, int rack_size, PlacementState* state,
                    ServerHeap* heap, PackScratch* scratch, JobPlacement* placement) {
  if (rack_size <= 0) {
    return PlaceOptimus(job, state, heap, scratch, placement);
  }
  const std::vector<Server>& servers = state->servers();
  const int n = static_cast<int>(servers.size());
  const int num_racks = (n + rack_size - 1) / rack_size;

  std::vector<std::pair<double, int>> rack_order;  // (free cpu sum, rack)
  rack_order.reserve(static_cast<size_t>(num_racks));
  for (int r = 0; r < num_racks; ++r) {
    double free_sum = 0.0;
    const int begin = r * rack_size;
    const int end = std::min(n, begin + rack_size);
    for (int s = begin; s < end; ++s) {
      if (servers[static_cast<size_t>(s)].available()) {
        free_sum += servers[static_cast<size_t>(s)].Free().cpu();
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
      if (servers[static_cast<size_t>(s)].available()) {
        candidates.push_back(static_cast<size_t>(s));
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
      return servers[a].Free().cpu() > servers[b].Free().cpu();
    });
    if (PackOntoCandidates(job, state, /*heap=*/nullptr, scratch, placement)) {
      return true;
    }
  }
  // No rack can hold the job alone: spill across racks the Theorem-1 way.
  return PlaceOptimus(job, state, heap, scratch, placement);
}

enum class PickRule { kMostFree, kTightestFit };

// Places a job one task at a time using a server-picking rule; rolls back on
// failure so the servers are unchanged when false is returned.
bool PlacePerTask(const PlacementJobInput& job, PickRule rule, PlacementState* state,
                  JobPlacement* placement) {
  const std::vector<Server>& servers = state->servers();
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
    for (size_t s = 0; s < servers.size(); ++s) {
      const Server& server = servers[s];
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
      state->Allocate(static_cast<size_t>(s), demand);
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
    state->Release(step.server, step.demand);
  }
  return false;
}

}  // namespace

void PlacementState::BeginRound(const std::vector<Server>& base, double background_share) {
  const auto preoccupy = [background_share](Server* server) {
    if (background_share > 0.0 && server->available()) {
      server->Allocate(server->capacity() * background_share);
    }
  };
  if (!built_ || background_share != background_share_) {
    servers_ = base;
    for (Server& server : servers_) {
      preoccupy(&server);
    }
    background_share_ = background_share;
    built_ = true;
    Build();
    return;
  }
  for (size_t s : touched_) {
    servers_[s] = base[s];
    preoccupy(&servers_[s]);
    is_touched_[s] = false;
  }
  touched_.clear();
  round_open_ = true;
}

void PlacementState::Build() {
  total_capacity_ = TotalCapacity(servers_);
  order_.clear();
  order_.reserve(servers_.size());
  for (size_t s = 0; s < servers_.size(); ++s) {
    if (servers_[s].available()) {
      order_.push_back({servers_[s].Free().cpu(), s});
    }
  }
  std::sort(order_.begin(), order_.end(), std::greater<>());
  heap_.reserve(order_.size());
  touched_.clear();
  touched_.reserve(servers_.size());
  is_touched_.assign(servers_.size(), false);
  round_open_ = true;
}

void PlacementState::Allocate(size_t s, const Resources& demand) {
  servers_[s].Allocate(demand);
  Touch(s);
}

void PlacementState::Release(size_t s, const Resources& demand) {
  servers_[s].Release(demand);
  Touch(s);
}

void PlacementState::Touch(size_t s) {
  if (!is_touched_[s]) {
    is_touched_[s] = true;
    touched_.push_back(s);
  }
}

std::vector<PlacedJob> PlaceJobs(PlacementPolicy policy,
                                 const std::vector<PlacementJobInput>& jobs,
                                 std::vector<Server>* servers, bool shrink_to_fit,
                                 int rack_size) {
  PlacementState state;
  state.servers_ = std::move(*servers);
  state.Build();
  std::vector<PlacedJob> result = PlaceJobs(policy, jobs, &state, shrink_to_fit, rack_size);
  *servers = std::move(state.servers_);
  return result;
}

std::vector<PlacedJob> PlaceJobs(PlacementPolicy policy,
                                 const std::vector<PlacementJobInput>& jobs,
                                 PlacementState* state, bool shrink_to_fit, int rack_size) {
  OPTIMUS_CHECK(state->round_open_) << "PlaceJobs needs a BeginRound since its last call";
  state->round_open_ = false;
  std::vector<PlacedJob> result(jobs.size());

  // Smallest jobs first (total dominant footprint) to avoid starving them.
  // Each footprint is computed once, before the sort.
  const Resources& capacity = state->total_capacity_;
  std::vector<double> footprint(jobs.size());
  size_t max_tasks = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const PlacementJobInput& job = jobs[i];
    const Resources total = job.worker_demand * job.alloc.num_workers +
                            job.ps_demand * job.alloc.num_ps;
    footprint[i] = total.DominantShare(capacity);
    max_tasks =
        std::max(max_tasks, static_cast<size_t>(job.alloc.num_workers + job.alloc.num_ps));
  }
  std::vector<size_t> job_order(jobs.size());
  std::iota(job_order.begin(), job_order.end(), 0);
  std::stable_sort(job_order.begin(), job_order.end(),
                   [&](size_t a, size_t b) { return footprint[a] < footprint[b]; });

  ServerHeap heap(state->servers_, state->order_, &state->heap_);
  PackScratch scratch;
  scratch.Reserve(max_tasks);
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
          placed = PlaceOptimus(job, state, &heap, &scratch, placement);
          break;
        case PlacementPolicy::kLoadBalance:
          placed = PlacePerTask(job, PickRule::kMostFree, state, placement);
          break;
        case PlacementPolicy::kTetrisPack:
          placed = PlacePerTask(job, PickRule::kTightestFit, state, placement);
          break;
        case PlacementPolicy::kRackPack:
          placed = PlaceRackAware(job, rack_size, state, &heap, &scratch, placement);
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
