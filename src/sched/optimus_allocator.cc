#include "src/sched/optimus_allocator.h"

#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/min_heap.h"
#include "src/sched/speed_surface.h"

namespace optimus {

Resources AllocationDemand(const SchedJob& job, const Allocation& alloc) {
  return job.worker_demand * alloc.num_workers + job.ps_demand * alloc.num_ps;
}

namespace {

// How the greedy reads one job's f: through the job's round surface for the
// memoized kinds, inline from the estimate for the closed-form ones. Each
// inline evaluation is one probe and one eval, tallied in *inline_evals.
struct SpeedProbe {
  const SchedJob* job;
  SpeedSurface* surface;  // null: evaluate inline
  int64_t* inline_evals;

  double operator()(int p, int w) const {
    if (surface != nullptr) {
      return surface->Speed(p, w);
    }
    ++*inline_evals;
    return job->speed(p, w);
  }
};

// Estimated completion time at an allocation; infinity when speed is zero.
// All-reduce jobs (max_ps == 0) live on the p == 0 row.
double CompletionTime(const SpeedProbe& speed, int p, int w) {
  const SchedJob& job = *speed.job;
  const int min_ps = job.max_ps > 0 ? 1 : 0;
  if (p < min_ps || w < 1) {
    return std::numeric_limits<double>::infinity();
  }
  const double f = speed(p, w);
  if (f <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return job.remaining_epochs / f;
}

// Completion time at a job's seed, where its walk or heap entry starts. A
// job with no work left never competes: infinity, without a probe.
double SeedTime(const SpeedProbe& speed, const Allocation& seed) {
  if (speed.job->remaining_epochs <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return CompletionTime(speed, seed.num_ps, seed.num_workers);
}

enum class AddKind { kWorker, kPs };

// Dead-kind bits of a job within one round.
constexpr uint8_t kWorkerDead = 1;
constexpr uint8_t kPsDead = 2;

struct Candidate {
  double gain = 0.0;
  // Completion time once the task is granted: the job's next t_now.
  double t_next = 0.0;
  int job_index = 0;
  AddKind kind = AddKind::kWorker;

  bool operator<(const Candidate& other) const {
    if (gain != other.gain) {
      return gain < other.gain;
    }
    // Deterministic tie-breaking: earlier-arrived jobs first, workers before
    // parameter servers.
    if (job_index != other.job_index) {
      return job_index > other.job_index;
    }
    return kind == AddKind::kPs && other.kind == AddKind::kWorker;
  }
};

// Max-first order for the shared MinHeap: a comes out before b when b ranks
// below a under the Candidate priority above.
struct CandidateBefore {
  bool operator()(const Candidate& a, const Candidate& b) const { return b < a; }
};

// Dominant-resource footprint of one added task of each kind: the demand's
// share on the resource that dominates it against the round's capacity.
struct TaskFootprint {
  double worker = 0.0;
  double ps = 0.0;
};

TaskFootprint FootprintOf(const SchedJob& job, const Resources& capacity) {
  return {job.worker_demand.Get(job.worker_demand.DominantResource(capacity)),
          job.ps_demand.Get(job.ps_demand.DominantResource(capacity))};
}

// Marginal gain of adding one task of `kind` to the job per Eqn 9, normalized
// by the dominant-resource footprint of the added task; t_now is the
// completion time at `alloc`, carried by the caller. Returns false when the
// addition is impossible (cap reached) or the gain is not positive.
bool KindCandidate(const SpeedProbe& speed, const Allocation& alloc, double t_now,
                   const TaskFootprint& footprint, AddKind kind, Candidate* out) {
  const SchedJob& job = *speed.job;
  double t_next = std::numeric_limits<double>::infinity();
  double dom = 0.0;
  if (kind == AddKind::kWorker) {
    if (alloc.num_workers >= job.max_workers) {
      return false;
    }
    t_next = CompletionTime(speed, alloc.num_ps, alloc.num_workers + 1);
    dom = footprint.worker;
  } else {
    if (alloc.num_ps >= job.max_ps) {
      return false;
    }
    t_next = CompletionTime(speed, alloc.num_ps + 1, alloc.num_workers);
    dom = footprint.ps;
  }
  if (dom <= 0.0 || !std::isfinite(t_next)) {
    return false;
  }
  const double gain = (t_now - t_next) / dom * job.priority_factor;
  if (gain <= 0.0) {
    return false;
  }
  out->gain = gain;
  out->t_next = t_next;
  out->kind = kind;
  return true;
}

// Job i's better live candidate at `alloc`, whose completion time is t_now,
// under the Candidate order; `other` receives the losing kind when both
// qualify. Kinds whose bit is set in `dead` never qualify, but are still
// evaluated: every grant then probes both kinds, exactly as a lazy heap
// re-pushing both kinds does. Returns how many candidates qualified (0, 1 or
// 2).
int BestCandidate(const SpeedProbe& speed, size_t i, const Allocation& alloc, double t_now,
                  const TaskFootprint& footprint, uint8_t dead, Candidate* best,
                  Candidate* other) {
  if (!std::isfinite(t_now)) {
    return 0;
  }
  Candidate w;
  Candidate p;
  w.job_index = p.job_index = static_cast<int>(i);
  const bool has_w = KindCandidate(speed, alloc, t_now, footprint, AddKind::kWorker, &w) &&
                     (dead & kWorkerDead) == 0;
  const bool has_p = KindCandidate(speed, alloc, t_now, footprint, AddKind::kPs, &p) &&
                     (dead & kPsDead) == 0;
  if (has_w && has_p) {
    *best = w < p ? p : w;
    *other = w < p ? w : p;
    return 2;
  }
  if (has_w || has_p) {
    *best = has_w ? w : p;
    return 1;
  }
  return 0;
}

void Grant(AddKind kind, Allocation* alloc) {
  if (kind == AddKind::kWorker) {
    ++alloc->num_workers;
  } else {
    ++alloc->num_ps;
  }
}

// Seeds a job with (1 PS, 1 worker), or a single worker for an all-reduce
// job, when that fits on top of `used`. Returns false, leaving both outputs
// untouched, when it does not.
bool SeedJob(const SchedJob& job, const Resources& capacity, Resources* used,
             Allocation* seed) {
  const int seed_ps = job.max_ps > 0 ? 1 : 0;
  const Resources demand = job.worker_demand + job.ps_demand * seed_ps;
  if (!capacity.Fits(*used + demand)) {
    return false;
  }
  *used += demand;
  *seed = {seed_ps, 1};
  return true;
}

// Walks job i's solo greedy path from *end: grants its better kind until the
// caps or a gain <= 0 stop it, carrying the completion time forward so each
// point on and beside the path is probed once.
void WalkSoloPath(const SpeedProbe& speed, size_t i, const TaskFootprint& footprint,
                  Allocation* end) {
  Candidate best;
  Candidate other;
  double t = SeedTime(speed, *end);
  while (BestCandidate(speed, i, *end, t, footprint, /*dead=*/0, &best, &other) > 0) {
    Grant(best.kind, end);
    t = best.t_next;
  }
}

// Adds the demand of a job's path beyond its seed to the slack total.
void AddPathDemand(const SchedJob& job, const Allocation& seed, const Allocation& end,
                   Resources* total) {
  *total += job.worker_demand * (end.num_workers - seed.num_workers) +
            job.ps_demand * (end.num_ps - seed.num_ps);
}

// The slack test: the total fits with a 1e-6 relative margin, far above the
// rounding of any summation order.
bool FitsWithSlack(const Resources& capacity, const Resources& total) {
  return capacity.Fits(total * (1.0 + 1e-6));
}

}  // namespace

std::vector<Allocation> OptimusAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                                   const Resources& capacity,
                                                   SpeedSurfaceSet* surfaces) const {
  return Allocate(jobs, capacity, surfaces, /*round=*/nullptr);
}

std::vector<Allocation> OptimusAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                                   const Resources& capacity,
                                                   SpeedSurfaceSet* surfaces,
                                                   OptimusSlackRound* round) const {
  OPTIMUS_CHECK(surfaces != nullptr);
  std::vector<Allocation> alloc(jobs.size());
  Resources used;

  OptimusAllocRoundStats local_stats;
  OptimusAllocRoundStats* stats =
      stats_ != nullptr ? stats_ : &local_stats;

  // Seed every job with (1 PS, 1 worker) — or a single worker for all-reduce
  // jobs, which run no PS tasks — while capacity lasts, in input (arrival)
  // order; jobs that do not fit stay pending this interval. A seeded job's
  // per-task footprints are computed once here, not once per greedy step.
  // Only the memoized estimate kinds get a surface; the closed-form kinds
  // are evaluated inline.
  std::vector<bool> active(jobs.size(), false);
  std::vector<SpeedSurface*> surf(jobs.size(), nullptr);
  std::vector<TaskFootprint> footprint(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (SeedJob(jobs[i], capacity, &used, &alloc[i])) {
      active[i] = true;
      if (jobs[i].speed.memoized()) {
        surf[i] = surfaces->Surface(jobs[i]);
      }
      footprint[i] = FootprintOf(jobs[i], capacity);
    }
  }

  // Walk every seeded job's solo greedy path, in input order: grant its
  // better kind until the caps or a gain <= 0 stop it. While capacity
  // does not bind, a job's grants depend only on its own speed estimate, so
  // the walks probe speculatively: each surface is opened by its first job,
  // and inline evaluations are tallied apart.
  int64_t walk_evals = 0;
  std::vector<Allocation> end = alloc;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!active[i]) {
      continue;
    }
    if (surf[i] != nullptr && !surf[i]->speculating()) {
      surf[i]->BeginSpeculation();
    }
    WalkSoloPath(SpeedProbe{&jobs[i], surf[i], &walk_evals}, i, footprint[i], &end[i]);
  }

  // Slack round: the seeds plus every path fit with a 1e-6 relative margin.
  // Every grant the serial greedy makes is then a prefix of some path and
  // fits, so no kind ever pops unfittable and the greedy ends exactly at the
  // path ends, having evaluated exactly the walks' points. Otherwise the
  // walks are rolled back and their inline evaluations go uncounted.
  Resources total = used;
  for (size_t i = 0; i < jobs.size(); ++i) {
    AddPathDemand(jobs[i], alloc[i], end[i], &total);
  }
  const bool slack = FitsWithSlack(capacity, total);
  if (round != nullptr) {
    round->slack = slack;
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (surf[i] != nullptr && surf[i]->speculating()) {
      surf[i]->EndSpeculation(slack);
    }
  }
  if (slack) {
    surfaces->CountInline(walk_evals);
    for (size_t i = 0; i < jobs.size(); ++i) {
      const int64_t grants = end[i].num_workers - alloc[i].num_workers +
                             end[i].num_ps - alloc[i].num_ps;
      stats->pops += grants;
      stats->grants += grants;
    }
    if (round != nullptr) {
      round->seeds = std::move(alloc);
      round->seed_demand = used;
    }
    return end;
  }

  // Binding round: the exact serial greedy from the seeds, with one heap
  // entry per job, its better kind. The other kind waits in the job's slot
  // and enters the heap only if the better one pops unfittable. A kind that
  // pops unfittable is dead for the round: capacity only shrinks and the
  // per-task demand is fixed. Every entry is current when it pops, so the
  // grant sequence is that of a lazy heap holding both kinds. Each job's
  // completion time at its current allocation is carried in t: a grant
  // takes the popped candidate's t_next.
  int64_t heap_evals = 0;
  MinHeap<Candidate, CandidateBefore> heap;
  std::vector<Candidate> waiting(jobs.size());
  std::vector<uint8_t> has_waiting(jobs.size(), 0);
  std::vector<uint8_t> dead(jobs.size(), 0);
  std::vector<double> t(jobs.size(), 0.0);
  const auto push_best = [&](size_t i) {
    Candidate best;
    const int found = BestCandidate(SpeedProbe{&jobs[i], surf[i], &heap_evals}, i, alloc[i],
                                    t[i], footprint[i], dead[i], &best, &waiting[i]);
    has_waiting[i] = found == 2;
    if (found > 0) {
      heap.push(best);
    }
  };
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (active[i]) {
      t[i] = SeedTime(SpeedProbe{&jobs[i], surf[i], &heap_evals}, alloc[i]);
      push_best(i);
    }
  }
  while (!heap.empty()) {
    const Candidate c = heap.top();
    heap.pop();
    ++stats->pops;
    const size_t i = static_cast<size_t>(c.job_index);
    const Resources& demand =
        c.kind == AddKind::kWorker ? jobs[i].worker_demand : jobs[i].ps_demand;
    if (!capacity.Fits(used + demand)) {
      ++stats->unfittable_drops;
      dead[i] |= c.kind == AddKind::kWorker ? kWorkerDead : kPsDead;
      if (has_waiting[i] != 0) {
        has_waiting[i] = 0;
        heap.push(waiting[i]);
      }
      continue;
    }
    used += demand;
    Grant(c.kind, &alloc[i]);
    t[i] = c.t_next;
    ++stats->grants;
    push_best(i);
  }
  surfaces->CountInline(heap_evals);
  return alloc;
}

bool OptimusAllocator::AppendToSlackRound(const std::vector<SchedJob>& jobs,
                                          const OptimusSlackRound& round,
                                          const std::vector<Allocation>& ends,
                                          const SchedJob& candidate, SpeedSurface* surface,
                                          const Resources& capacity,
                                          Allocation* out) const {
  if (!round.slack) {
    return false;
  }
  OPTIMUS_CHECK_EQ(round.seeds.size(), jobs.size());
  OPTIMUS_CHECK_EQ(ends.size(), jobs.size());
  // Allocate(jobs + {candidate}) seeds the existing jobs exactly as before and
  // the candidate last, then walks the candidate's path last.
  Resources used = round.seed_demand;
  Allocation seed;
  Allocation end;
  if (SeedJob(candidate, capacity, &used, &seed)) {
    end = seed;
    int64_t uncounted = 0;
    WalkSoloPath(SpeedProbe{&candidate, surface, &uncounted}, jobs.size(),
                 FootprintOf(candidate, capacity), &end);
  }
  Resources total = used;
  for (size_t i = 0; i < jobs.size(); ++i) {
    AddPathDemand(jobs[i], round.seeds[i], ends[i], &total);
  }
  AddPathDemand(candidate, seed, end, &total);
  if (!FitsWithSlack(capacity, total)) {
    return false;
  }
  *out = end;
  return true;
}

}  // namespace optimus
