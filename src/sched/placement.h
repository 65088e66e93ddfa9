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
// There is one packing path. The Theorem-1 packer keeps one lazy max-heap of
// (free CPU, server id) over the available servers, which pops them in the
// paper's descending-availability order (ties: higher id first) without
// re-sorting per job. Every policy emits the compact JobPlacement form: a
// job's placement costs O(tasks) memory whatever the cluster size.
//
// Jobs that cannot be placed under a policy are reported back; the simulator
// pauses them until the next interval (§4.2).
//
// The result is one flat entry per input job, read by position. Under
// kOptimusPack a call allocates only each placed job's three placement
// vectors (each reserved once at its final size) plus a fixed number of
// per-call buffers: footprints are computed once before the sort, and every
// per-job working buffer lives in one reused scratch.

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
