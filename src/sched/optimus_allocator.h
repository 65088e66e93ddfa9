// Optimus's marginal-gain resource allocation (§4.1).
//
// Each active job first receives one worker and one parameter server (to
// avoid starvation). Then, repeatedly, the job offering the largest reduction
// in estimated completion time per unit of dominant resource — Eqn 9 —
// receives one more worker or parameter server (whichever gain is larger),
// until the cluster is full or every job's marginal gain is non-positive.
//
// The estimated completion time of job j is t_j = Q_j / f(p_j, w_j), where
// Q_j comes from the convergence model and f from the speed model. Allocations
// only grow within a round, so the walk and the heap carry each job's t at
// its current point and evaluate f at most once per job and (p, w): inline
// for the closed-form estimate kinds, through the round's memoized surfaces
// for the others (src/sched/speed_surface.h).
//
// After the seeding, each job's solo greedy path (its own better kind, grant
// after grant) is walked, one job after another in input order. When the
// seeds plus all paths fit the capacity, those path ends ARE the greedy's
// answer; otherwise the walks are rolled back and an exact merge with one
// heap entry per job decides (docs/ALGORITHMS.md §3).
//
// A slack round can take one more job without being re-run: appending a
// candidate leaves every earlier seed, walk and path end unchanged, so only
// the candidate's seed, its walk and the slack total need redoing
// (AppendToSlackRound; what-if admission uses it, src/sched/what_if.h).

#ifndef SRC_SCHED_OPTIMUS_ALLOCATOR_H_
#define SRC_SCHED_OPTIMUS_ALLOCATOR_H_

#include <vector>

#include "src/sched/scheduler.h"

namespace optimus {

class SpeedSurface;

// Observable counters for one greedy round; useful for tests and for the
// scalability benches. pops == grants + unfittable_drops always.
struct OptimusAllocRoundStats {
  // Candidates taken as some job's best next task: one per grant, plus one
  // per unfittable drop in a binding round.
  int64_t pops = 0;
  int64_t grants = 0;
  // Candidates whose task kind no longer fits the remaining capacity; that
  // kind is dead for the rest of the round (capacity only shrinks).
  int64_t unfittable_drops = 0;
};

// The slack verdict of one Allocate call, recorded so one more job can be
// appended to a slack round without re-running it.
struct OptimusSlackRound {
  // Whether the round took its slack branch: its answer is then every job's
  // solo path end. The fields below are filled only when it did.
  bool slack = false;
  // Per input job, in input order: its seed, or Allocation{} when the seed
  // did not fit.
  std::vector<Allocation> seeds;
  // The seeds' summed demand, accumulated in input order.
  Resources seed_demand;
};

class OptimusAllocator : public Allocator {
 public:
  // When `stats` is non-null, the allocator accumulates per-round counters
  // there.
  explicit OptimusAllocator(OptimusAllocRoundStats* stats = nullptr) : stats_(stats) {}

  using Allocator::Allocate;
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;

  // The same decision; also records the round's slack verdict in *round
  // (when non-null).
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity, SpeedSurfaceSet* surfaces,
                                   OptimusSlackRound* round) const;

  // Appends `candidate` to the round that Allocate(jobs, capacity) recorded
  // in `round` and answered with `ends`. Seeds the candidate, walks its solo
  // path on `surface` (inline from candidate.speed when it is null), and
  // redoes the seed and slack-total sums in the order
  // Allocate(jobs + {candidate}) uses. When that round is slack too, its
  // answer is `ends` plus the candidate's path end: returns true with that
  // end in *out. Returns false when `round` was not slack or the appended
  // round binds; only the full Allocate decides then. Counts no stats.
  bool AppendToSlackRound(const std::vector<SchedJob>& jobs, const OptimusSlackRound& round,
                          const std::vector<Allocation>& ends, const SchedJob& candidate,
                          SpeedSurface* surface, const Resources& capacity,
                          Allocation* out) const;

  const char* name() const override { return "optimus"; }

 private:
  OptimusAllocRoundStats* stats_;
};

}  // namespace optimus

#endif  // SRC_SCHED_OPTIMUS_ALLOCATOR_H_
