// OptimusAllocator against a reference copy of the classic serial greedy: a
// lazily-validated max-heap holding one candidate per (job, kind), re-pushing
// both kinds after every grant and discarding superseded entries on pop. On
// seeded random instances — slack and binding capacity, all-reduce jobs,
// shared surfaces, kinds that stop fitting — the path walk plus one-entry
// merge must make the same decisions and evaluate the same speed points,
// probing each point once per job where the reference probes it twice.

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/min_heap.h"
#include "src/common/rng.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/speed_surface.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Reference: the two-entry lazy-heap greedy, kept verbatim in behaviour.
// ---------------------------------------------------------------------------

struct RefStats {
  int64_t pops = 0;
  int64_t grants = 0;
  int64_t stale_drops = 0;
  int64_t unfittable_drops = 0;
};

enum class Kind { kWorker, kPs };

struct RefCandidate {
  double gain = 0.0;
  int job_index = 0;
  Kind kind = Kind::kWorker;
  int at_ps = 0;
  int at_workers = 0;

  bool operator<(const RefCandidate& other) const {
    if (gain != other.gain) {
      return gain < other.gain;
    }
    if (job_index != other.job_index) {
      return job_index > other.job_index;
    }
    return kind == Kind::kPs && other.kind == Kind::kWorker;
  }
};

struct RefBefore {
  bool operator()(const RefCandidate& a, const RefCandidate& b) const { return b < a; }
};

double RefCompletionTime(const SchedJob& job, SpeedSurface* surface, int p, int w) {
  const int min_ps = job.max_ps > 0 ? 1 : 0;
  if (p < min_ps || w < 1) {
    return std::numeric_limits<double>::infinity();
  }
  const double f = surface->Speed(p, w);
  if (f <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return job.remaining_epochs / f;
}

bool RefKindCandidate(const SchedJob& job, SpeedSurface* surface, const Allocation& alloc,
                      const Resources& capacity, Kind kind, RefCandidate* out) {
  if (job.remaining_epochs <= 0.0) {
    return false;
  }
  const double t_now = RefCompletionTime(job, surface, alloc.num_ps, alloc.num_workers);
  if (!std::isfinite(t_now)) {
    return false;
  }
  double t_next = std::numeric_limits<double>::infinity();
  double dom = 0.0;
  if (kind == Kind::kWorker) {
    if (alloc.num_workers >= job.max_workers) {
      return false;
    }
    t_next = RefCompletionTime(job, surface, alloc.num_ps, alloc.num_workers + 1);
    dom = job.worker_demand.Get(job.worker_demand.DominantResource(capacity));
  } else {
    if (alloc.num_ps >= job.max_ps) {
      return false;
    }
    t_next = RefCompletionTime(job, surface, alloc.num_ps + 1, alloc.num_workers);
    dom = job.ps_demand.Get(job.ps_demand.DominantResource(capacity));
  }
  if (dom <= 0.0 || !std::isfinite(t_next)) {
    return false;
  }
  const double gain = (t_now - t_next) / dom * job.priority_factor;
  if (gain <= 0.0) {
    return false;
  }
  out->gain = gain;
  out->kind = kind;
  out->at_ps = alloc.num_ps;
  out->at_workers = alloc.num_workers;
  return true;
}

std::vector<Allocation> ReferenceAllocate(const std::vector<SchedJob>& jobs,
                                          const Resources& capacity,
                                          SpeedSurfaceSet* surfaces, RefStats* stats) {
  std::vector<Allocation> alloc(jobs.size());
  Resources used;
  std::vector<bool> active(jobs.size(), false);
  std::vector<SpeedSurface*> surf(jobs.size(), nullptr);
  for (size_t i = 0; i < jobs.size(); ++i) {
    const int seed_ps = jobs[i].max_ps > 0 ? 1 : 0;
    const Resources seed = jobs[i].worker_demand + jobs[i].ps_demand * seed_ps;
    if (capacity.Fits(used + seed)) {
      used += seed;
      alloc[i] = {seed_ps, 1};
      active[i] = true;
      surf[i] = surfaces->Surface(jobs[i]);
    }
  }
  MinHeap<RefCandidate, RefBefore> heap;
  const auto push_kind = [&](size_t i, Kind kind) {
    RefCandidate c;
    c.job_index = static_cast<int>(i);
    if (RefKindCandidate(jobs[i], surf[i], alloc[i], capacity, kind, &c)) {
      heap.push(c);
    }
  };
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (active[i]) {
      push_kind(i, Kind::kWorker);
      push_kind(i, Kind::kPs);
    }
  }
  while (!heap.empty()) {
    const RefCandidate c = heap.top();
    heap.pop();
    ++stats->pops;
    const size_t i = static_cast<size_t>(c.job_index);
    if (c.at_ps != alloc[i].num_ps || c.at_workers != alloc[i].num_workers) {
      ++stats->stale_drops;
      continue;
    }
    const Resources demand =
        c.kind == Kind::kWorker ? jobs[i].worker_demand : jobs[i].ps_demand;
    if (!capacity.Fits(used + demand)) {
      ++stats->unfittable_drops;
      continue;
    }
    used += demand;
    if (c.kind == Kind::kWorker) {
      ++alloc[i].num_workers;
    } else {
      ++alloc[i].num_ps;
    }
    ++stats->grants;
    push_kind(i, Kind::kWorker);
    push_kind(i, Kind::kPs);
  }
  return alloc;
}

// ---------------------------------------------------------------------------
// Seeded random instances
// ---------------------------------------------------------------------------

enum class Capacity { kSlack, kBinding };

// A speed "model": jobs of a model that shares its estimate point at one
// Model and so share one surface (same function, same caps); the others each
// point at a copy of their own.
struct Model {
  double a, b, c, d, e, scale;
  bool allreduce;
  int max_ps, max_workers;
  bool shared;

  static double Speed(const void* ctx, int p, int w) {
    const Model& model = *static_cast<const Model*>(ctx);
    const double t = model.allreduce
                         ? model.a / w + model.b + model.c * (w - 1.0) / w + model.d * w
                         : model.a / w + model.b + model.c * w / p + model.d * w +
                               model.e * p;
    return model.scale / t;
  }
};

struct Instance {
  std::vector<SchedJob> jobs;
  Resources capacity;
  // The models the jobs' estimates point at (shared by copies).
  std::shared_ptr<std::deque<Model>> models = std::make_shared<std::deque<Model>>();
  // Whether two jobs carry one estimate.
  bool shares_estimates = false;
};

Resources RandomDemand(Rng* rng) {
  return Resources(rng->Uniform(1.0, 6.0), rng->Uniform(2.0, 20.0), 0.0,
                   rng->Uniform(0.05, 0.5));
}

Instance MakeInstance(uint64_t seed, Capacity capacity) {
  Rng rng(seed);
  Instance in;
  std::vector<Model> models(static_cast<size_t>(rng.UniformInt(1, 6)));
  for (size_t m = 0; m < models.size(); ++m) {
    Model& model = models[m];
    model.a = rng.Uniform(1.0, 8.0);
    model.b = rng.Uniform(0.2, 2.0);
    model.c = rng.Uniform(0.1, 1.5);
    model.d = rng.Uniform(0.01, 0.2);
    model.e = rng.Uniform(0.01, 0.2);
    model.scale = rng.Uniform(0.5, 3.0);
    model.allreduce = rng.Bernoulli(0.3);
    model.max_ps = model.allreduce ? 0 : static_cast<int>(rng.UniformInt(1, 12));
    model.max_workers = static_cast<int>(rng.UniformInt(1, 16));
    model.shared = rng.Bernoulli(0.6);
  }
  std::vector<const Model*> shared_ctx(models.size(), nullptr);

  const int num_jobs = static_cast<int>(rng.UniformInt(1, 40));
  Resources seeds;
  for (int j = 0; j < num_jobs; ++j) {
    const size_t m =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(models.size()) - 1));
    const Model& model = models[m];
    SchedJob job;
    job.job_id = 3 * j + 7;
    job.comm = model.allreduce ? CommMode::kAllReduce : CommMode::kParameterServer;
    job.max_ps = model.max_ps;
    job.max_workers = model.max_workers;
    job.worker_demand = RandomDemand(&rng);
    job.ps_demand = model.allreduce ? Resources() : RandomDemand(&rng);
    job.remaining_epochs = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.5, 50.0);
    job.priority_factor = rng.Bernoulli(0.3) ? 0.95 : 1.0;
    const Model* ctx = shared_ctx[m];
    if (ctx == nullptr) {
      ctx = &in.models->emplace_back(model);
      if (model.shared) {
        shared_ctx[m] = ctx;
      }
    } else {
      in.shares_estimates = true;
    }
    job.speed = SpeedEstimate::Custom(&Model::Speed, ctx);
    seeds += job.worker_demand + job.ps_demand * (job.max_ps > 0 ? 1 : 0);
    in.jobs.push_back(job);
  }
  in.capacity = capacity == Capacity::kSlack
                    ? Resources(1e7, 1e8, 0.0, 1e6)
                    : seeds * rng.Uniform(0.6, 3.0);
  return in;
}

// Workers cost 5 CPUs and PSes 3, and the speed gains favour PSes, so the
// worker kind stops fitting while the PS side keeps filling.
Instance UnfittableWorkerInstance() {
  Instance in;
  for (int j = 0; j < 2; ++j) {
    SchedJob job;
    job.job_id = j;
    job.worker_demand = Resources(5, 10, 0, 0.2);
    job.ps_demand = Resources(3, 10, 0, 0.2);
    job.remaining_epochs = 10.0 + j;
    job.speed = KeepSpeed([](int p, int w) {
      return 1.0 / (4.0 / p + 0.2 / w + 0.05 * p + 0.05 * w);
    });
    job.max_ps = 16;
    job.max_workers = 16;
    in.jobs.push_back(std::move(job));
  }
  in.capacity = Resources(30, 10000, 0, 1000);
  return in;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

struct Outcome {
  std::vector<Allocation> result;
  OptimusAllocRoundStats stats;
  int64_t probes = 0;
  int64_t evals = 0;
  size_t surfaces = 0;
};

Outcome RunAllocator(const Instance& in) {
  Outcome out;
  SpeedSurfaceSet surfaces;
  out.result = OptimusAllocator(&out.stats).Allocate(in.jobs, in.capacity, &surfaces);
  out.probes = surfaces.probes();
  out.evals = surfaces.evals();
  out.surfaces = surfaces.num_surfaces();
  return out;
}

// Checks one instance against the reference; returns the allocator's
// unfittable-drop count.
int64_t ExpectEquivalent(const Instance& in, bool slack, const std::string& where) {
  RefStats ref_stats;
  SpeedSurfaceSet ref_surfaces;
  const std::vector<Allocation> want =
      ReferenceAllocate(in.jobs, in.capacity, &ref_surfaces, &ref_stats);
  const Outcome got = RunAllocator(in);
  EXPECT_EQ(got.result.size(), want.size()) << where;
  for (size_t i = 0; i < std::min(want.size(), got.result.size()); ++i) {
    EXPECT_EQ(got.result[i].num_ps, want[i].num_ps) << where << " job " << i;
    EXPECT_EQ(got.result[i].num_workers, want[i].num_workers) << where << " job " << i;
  }
  EXPECT_EQ(got.stats.grants, ref_stats.grants) << where;
  EXPECT_EQ(got.stats.pops, got.stats.grants + got.stats.unfittable_drops) << where;
  EXPECT_EQ(got.surfaces, ref_surfaces.num_surfaces()) << where;
  // A binding round rolls its walks back, so the speed work is the serial
  // greedy's either way.
  EXPECT_EQ(got.evals, ref_surfaces.evals()) << where;
  // The greedy carries each job's completion time at its current point, so
  // it probes every point once per job; the reference re-probes the current
  // point for each kind. Only a shared surface answers a probe from memo.
  if (!in.shares_estimates) {
    EXPECT_EQ(got.probes, got.evals) << where;
  }
  EXPECT_LE(got.probes, ref_surfaces.probes()) << where;
  if (slack) {
    EXPECT_EQ(got.stats.unfittable_drops, 0) << where;
  }
  // Each dead kind pops once, where the two-entry heap re-drops it after
  // every grant of the job's other kind.
  EXPECT_LE(got.stats.unfittable_drops, ref_stats.unfittable_drops) << where;
  return got.stats.unfittable_drops;
}

TEST(AllocEquivalenceTest, SlackRoundsMatchDecisionsAndSpeedWork) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ExpectEquivalent(MakeInstance(seed, Capacity::kSlack), true,
                     "slack seed " + std::to_string(seed));
  }
}

TEST(AllocEquivalenceTest, BindingRoundsMatchDecisionsAndSpeedWork) {
  int64_t unfittable = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    unfittable += ExpectEquivalent(MakeInstance(1000 + seed, Capacity::kBinding), false,
                                   "binding seed " + std::to_string(seed));
  }
  // The binding instances must actually exercise the unfittable path.
  EXPECT_GT(unfittable, 0);
}

TEST(AllocEquivalenceTest, KindThatStopsFittingMatches) {
  EXPECT_GT(ExpectEquivalent(UnfittableWorkerInstance(), false, "unfittable worker"), 0);
}

// ---------------------------------------------------------------------------
// Slack append: one more job on a recorded slack round
// ---------------------------------------------------------------------------

// Appends `candidate` to the slack record of Allocate(existing) and checks
// the verdict and the answer against a full Allocate(existing + {candidate})
// on fresh surfaces. Returns whether the append applied.
bool ExpectAppendMatchesFull(const std::vector<SchedJob>& existing,
                             const SchedJob& candidate, const Resources& capacity,
                             const std::string& where) {
  const OptimusAllocator allocator;
  SpeedSurfaceSet surfaces;
  OptimusSlackRound round;
  const std::vector<Allocation> ends = allocator.Allocate(existing, capacity, &surfaces, &round);
  SpeedSurface surface(candidate.speed, candidate.max_ps, candidate.max_workers);
  Allocation appended;
  const bool applied = allocator.AppendToSlackRound(existing, round, ends, candidate,
                                                    &surface, capacity, &appended);

  std::vector<SchedJob> with_job = existing;
  with_job.push_back(candidate);
  SpeedSurfaceSet fresh;
  OptimusSlackRound full_round;
  const std::vector<Allocation> full =
      allocator.Allocate(with_job, capacity, &fresh, &full_round);
  // The append applies exactly when both rounds are slack; a binding
  // baseline always falls back.
  EXPECT_EQ(applied, round.slack && full_round.slack) << where;
  if (applied) {
    for (size_t i = 0; i < existing.size(); ++i) {
      EXPECT_EQ(full[i].num_ps, ends[i].num_ps) << where << " job " << i;
      EXPECT_EQ(full[i].num_workers, ends[i].num_workers) << where << " job " << i;
    }
    EXPECT_EQ(full.back().num_ps, appended.num_ps) << where;
    EXPECT_EQ(full.back().num_workers, appended.num_workers) << where;
  }
  return applied;
}

// The summed demand of `jobs` at a slack round's answer: the quantity the
// slack test compares against the capacity.
Resources SlackTotal(const std::vector<SchedJob>& jobs) {
  const std::vector<Allocation> ends =
      OptimusAllocator().Allocate(jobs, Resources(1e7, 1e8, 0.0, 1e6));
  Resources total;
  for (size_t i = 0; i < jobs.size(); ++i) {
    total += AllocationDemand(jobs[i], ends[i]);
  }
  return total;
}

// A candidate split off a random instance: its last job, renumbered so its id
// collides with no existing job's.
struct AppendCase {
  std::vector<SchedJob> existing;
  SchedJob candidate;
};

AppendCase SplitInstance(const Instance& in) {
  AppendCase c;
  c.existing.assign(in.jobs.begin(), in.jobs.end() - 1);
  c.candidate = in.jobs.back();
  c.candidate.job_id = 2;
  return c;
}

TEST(SlackAppendTest, MatchesFullAllocateOnRandomInstances) {
  int applied = 0;
  int fell_back = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    for (const Capacity kind : {Capacity::kSlack, Capacity::kBinding}) {
      const Instance in = MakeInstance(5000 + seed, kind);
      if (in.jobs.size() < 2) {
        continue;
      }
      const AppendCase c = SplitInstance(in);
      const bool ok = ExpectAppendMatchesFull(c.existing, c.candidate, in.capacity,
                                              "seed " + std::to_string(seed));
      ++(ok ? applied : fell_back);
    }
  }
  EXPECT_GT(applied, 0);
  EXPECT_GT(fell_back, 0);
}

TEST(SlackAppendTest, CapacityAtTheSlackMargin) {
  // Capacities a hair either side of the appended round's own slack test:
  // the verdict must track the full round's at every one of them.
  int applied = 0;
  int fell_back = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const Instance in = MakeInstance(7000 + seed, Capacity::kSlack);
    if (in.jobs.size() < 2) {
      continue;
    }
    const AppendCase c = SplitInstance(in);
    const Resources total = SlackTotal(in.jobs);
    for (const double scale : {1.0 + 2e-6, 1.0 + 1e-6, 1.0, 1.0 - 1e-6}) {
      const bool ok = ExpectAppendMatchesFull(
          c.existing, c.candidate, total * scale,
          "seed " + std::to_string(seed) + " scale " + std::to_string(scale));
      ++(ok ? applied : fell_back);
    }
  }
  EXPECT_GT(applied, 0);
  EXPECT_GT(fell_back, 0);
}

TEST(SlackAppendTest, CandidateKinds) {
  const Instance in = MakeInstance(42, Capacity::kSlack);
  ASSERT_GE(in.jobs.size(), 2u);
  const AppendCase base = SplitInstance(in);
  const Resources capacity = in.capacity;

  // An all-reduce candidate walks the p == 0 row.
  SchedJob allreduce = base.candidate;
  allreduce.comm = CommMode::kAllReduce;
  allreduce.max_ps = 0;
  allreduce.ps_demand = Resources();
  allreduce.speed =
      KeepSpeed([](int /*p*/, int w) { return 1.0 / (4.0 / w + 0.5 + 0.05 * w); });
  allreduce.remaining_epochs = 20.0;
  EXPECT_TRUE(ExpectAppendMatchesFull(base.existing, allreduce, capacity, "all-reduce"));

  // A parameter-server job with max_ps 0 seeds a worker only and never runs.
  SchedJob no_ps = allreduce;
  no_ps.comm = CommMode::kParameterServer;
  no_ps.ps_demand = Resources(1, 2, 0, 0.1);
  EXPECT_TRUE(ExpectAppendMatchesFull(base.existing, no_ps, capacity, "ps job, max_ps 0"));

  // A candidate whose seed does not fit gets nothing; the round stays slack.
  SchedJob huge = base.candidate;
  huge.worker_demand = capacity * 2.0;
  EXPECT_TRUE(ExpectAppendMatchesFull(base.existing, huge, capacity, "seed does not fit"));

  // A binding baseline falls back whatever the candidate: room for every
  // seed and nothing more.
  Resources seeds;
  for (const SchedJob& job : base.existing) {
    seeds += job.worker_demand + job.ps_demand * (job.max_ps > 0 ? 1 : 0);
  }
  SpeedSurfaceSet surfaces;
  OptimusSlackRound round;
  OptimusAllocator().Allocate(base.existing, seeds, &surfaces, &round);
  ASSERT_FALSE(round.slack);
  EXPECT_FALSE(ExpectAppendMatchesFull(base.existing, base.candidate, seeds, "binding"));
}

}  // namespace
}  // namespace optimus
