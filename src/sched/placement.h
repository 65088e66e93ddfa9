// Task placement onto physical servers (§4.2).
//
// Four policies:
//  - kOptimusPack: the paper's scheme. Servers are sorted by available
//    capacity (descending), jobs by resource demand (ascending, smallest job
//    first to avoid starvation). Each job is packed onto the smallest number
//    of servers that can host it, with parameter servers and workers spread
//    evenly over those servers (Theorem 1).
//  - kLoadBalance: the Kubernetes-default behaviour used by the DRF baseline:
//    every task goes to the currently least-loaded server that fits it.
//  - kTetrisPack: fragmentation-minimizing packing used by the Tetris
//    baseline: every task goes to the *tightest* fitting server (best fit).
//  - kRackPack: the rack-aware Theorem-1 variant. When the cluster has a
//    rack layout (`rack_size` > 0), each job is first packed entirely under
//    one edge switch — racks tried in descending free-capacity order — so
//    its traffic never crosses an oversubscribed uplink; jobs no single rack
//    can hold fall back to the global kOptimusPack scheme.
//
// There is one packing path. The Theorem-1 packer pops candidates in the
// paper's descending-availability order, (free CPU, server id) with ties
// going to the higher id, one at a time as the number of servers k grows, and
// returns only what it popped. Every policy emits the compact JobPlacement
// form: a job's placement costs O(tasks) memory whatever the cluster size.
//
// Placement runs on a PlacementState: the servers it mutates plus the cached
// round-start order of their available servers and the cluster's total
// capacity. A state kept across rounds (BeginRound) restores only the servers
// the last round touched, so an Optimus round costs O(tasks placed + servers
// touched) rather than O(cluster); a cluster change (availability edge, new
// background share) rebuilds it in O(N log N).
//
// Jobs that cannot be placed under a policy are reported back; the simulator
// pauses them until the next interval (§4.2).
//
// The result is one flat entry per input job, read by position. Under
// kOptimusPack a call allocates only each placed job's three placement
// vectors (each reserved once at its final size) plus a fixed number of
// per-call buffers: footprints are computed once before the sort, every
// per-job working buffer lives in one reused scratch, and a state's
// server-sized buffers are allocated once, when it is built.

#ifndef SRC_SCHED_PLACEMENT_H_
#define SRC_SCHED_PLACEMENT_H_

#include <vector>

#include "src/cluster/server.h"
#include "src/pserver/comm_model.h"
#include "src/sched/scheduler.h"

namespace optimus {

enum class PlacementPolicy {
  kOptimusPack,
  kLoadBalance,
  kTetrisPack,
  kRackPack,
};

const char* PlacementPolicyName(PlacementPolicy policy);

struct PlacementJobInput {
  int job_id = 0;
  Allocation alloc;
  Resources worker_demand;
  Resources ps_demand;
  // All-reduce jobs (num_ps == 0) are placeable with workers alone.
  CommMode comm = CommMode::kParameterServer;
};

// One job's placement outcome. PlaceJobs returns one per input job, at the
// job's input position.
struct PlacedJob {
  // Whether the job's tasks were placed. False for a job whose requested
  // allocation is not active (nothing to place) and for one that could not
  // be placed at all (to be paused this interval).
  bool placed = false;
  // The allocation actually placed (zero when not placed). Differs from the
  // requested allocation only when shrink-to-fit reduced an unplaceable job.
  Allocation alloc;
  // Where the job's tasks run (empty when not placed).
  JobPlacement placement;
};

// Working servers for placement rounds over one cluster, with the caches that
// let a round skip the servers it does not touch: the descending
// (free CPU, index) order of the available servers at the round's start, the
// total capacity, and the set of servers placed onto since that start.
//
// A state is a cache of its base cluster and background share: it holds no
// decision of its own and is never serialized.
class PlacementState {
 public:
  // Makes the working servers equal `base` with `background_share` of every
  // available server's capacity pre-occupied. Rebuilds the state (O(N log N))
  // at first use, after Invalidate(), and when the share differs from the
  // last round's; otherwise restores only the servers the last round touched.
  void BeginRound(const std::vector<Server>& base, double background_share);

  // Forces the next BeginRound to rebuild. Call whenever the base cluster's
  // availability changes: the cached order omits down servers.
  void Invalidate() { built_ = false; }

  // The working servers: the round-start state plus this round's placements.
  const std::vector<Server>& servers() const { return servers_; }

  // Commits (or rolls back) `demand` on server `s`, recording it as touched
  // so the next BeginRound restores it.
  void Allocate(size_t s, const Resources& demand);
  void Release(size_t s, const Resources& demand);

 private:
  friend std::vector<PlacedJob> PlaceJobs(PlacementPolicy policy,
                                          const std::vector<PlacementJobInput>& jobs,
                                          PlacementState* state, bool shrink_to_fit,
                                          int rack_size);
  friend std::vector<PlacedJob> PlaceJobs(PlacementPolicy policy,
                                          const std::vector<PlacementJobInput>& jobs,
                                          std::vector<Server>* servers, bool shrink_to_fit,
                                          int rack_size);

  // Caches the order and total capacity of the current servers_ and sizes
  // the per-server buffers; opens a round.
  void Build();
  // Adds `s` to the servers the next BeginRound restores.
  void Touch(size_t s);

  std::vector<Server> servers_;
  // Available servers by descending (free CPU, index) at the round's start.
  std::vector<std::pair<double, size_t>> order_;
  // Re-keyed entries of servers popped from `order_` this round (ServerHeap).
  std::vector<std::pair<double, size_t>> heap_;
  std::vector<size_t> touched_;
  std::vector<bool> is_touched_;
  Resources total_capacity_;
  double background_share_ = 0.0;
  bool built_ = false;
  // Set by BeginRound, cleared by PlaceJobs: one placement per round start.
  bool round_open_ = false;
};

// Places all jobs onto the state's working servers, which must be at a round
// start (one call per BeginRound). Decisions are those of the vector overload
// on a fresh copy of the round-start servers.
std::vector<PlacedJob> PlaceJobs(PlacementPolicy policy,
                                 const std::vector<PlacementJobInput>& jobs,
                                 PlacementState* state, bool shrink_to_fit = true,
                                 int rack_size = 0);

// Places all jobs onto `*servers`, committing each placed task's demand to
// its server (so `*servers` ends in the post-placement free state). Returns
// one PlacedJob per entry of `jobs`, in the same order.
//
// The cluster-level capacity check of the allocators (Eqn 7) ignores
// per-server fragmentation, so an allocation can be infeasible to place. With
// `shrink_to_fit` (the default), such a job is retried at repeatedly halved
// (p, w) down to (1, 1) before being declared unplaced — without it, a
// deterministic allocator can pause the same job forever.
// `rack_size` feeds the kRackPack policy's rack layout (0 = no racks: the
// policy degrades to kOptimusPack); other policies ignore it.
std::vector<PlacedJob> PlaceJobs(PlacementPolicy policy,
                                 const std::vector<PlacementJobInput>& jobs,
                                 std::vector<Server>* servers, bool shrink_to_fit = true,
                                 int rack_size = 0);

}  // namespace optimus

#endif  // SRC_SCHED_PLACEMENT_H_
