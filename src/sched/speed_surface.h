// Memoized speed surfaces: one scheduling round's cache of the costly speed
// estimates.
//
// The closed-form estimate kinds (zero, fitted, naive-linear; see
// src/sched/speed_estimate.h) cost a few flops, so the Optimus greedy and
// what-if admission evaluate them inline and build no surface for them. The
// memoized kinds (the oracle's step-time model, custom functions) are worth a
// cache: a SpeedSurface lazily caches f(p, w) over the job's feasible
// [1..max_ps] x [1..max_workers] grid (the single p == 0 row for all-reduce
// jobs, whose max_ps is 0) in a flat array, so each point is evaluated at
// most once per round even when the exhaustive allocator revisits it across
// branches or a cached what-if baseline re-probes it for every candidate
// (src/sched/what_if.h). A SpeedSurfaceSet owns the surfaces of one round and
// shares one surface between jobs whose estimates and caps are equal.
//
// Thread-safety: a SpeedSurface / SpeedSurfaceSet is NOT thread-safe, and no
// surface is ever used concurrently: each scheduling round (each allocator
// call chain) owns its set and probes it from one thread. The parallel
// experiment runner satisfies this by construction: every simulator instance
// builds its rounds' surfaces privately.

#ifndef SRC_SCHED_SPEED_SURFACE_H_
#define SRC_SCHED_SPEED_SURFACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/sched/scheduler.h"

namespace optimus {

// Lazy memo table over one speed estimate. Probes inside the grid are cached;
// probes outside fall through to the estimate every time.
class SpeedSurface {
 public:
  // `cache_enabled = false` turns the surface into a counting pass-through
  // (every probe re-evaluates); used to benchmark cached vs uncached rounds.
  SpeedSurface(SpeedEstimate speed, int max_ps, int max_workers,
               bool cache_enabled = true);

  // Memoized job.speed(p, w).
  double Speed(int p, int w);

  int max_ps() const { return max_ps_; }
  int max_workers() const { return max_workers_; }

  // Total Speed() calls vs underlying estimate evaluations.
  int64_t probes() const { return probes_; }
  int64_t evals() const { return evals_; }

  // Speculative probing. Probes between BeginSpeculation() and
  // EndSpeculation() memoize and count as usual; EndSpeculation(false) then
  // forgets the points first evaluated since BeginSpeculation() and restores
  // both counters, as if those probes never happened. EndSpeculation(true)
  // keeps everything.
  void BeginSpeculation();
  void EndSpeculation(bool keep);
  bool speculating() const { return speculating_; }

 private:
  friend class SpeedSurfaceSet;

  // Grid rows: [1..max_ps] for PS jobs, the single p == 0 row for all-reduce
  // jobs (max_ps == 0).
  size_t GridSize() const {
    return static_cast<size_t>(max_ps_ == 0 ? 1 : max_ps_) * max_workers_;
  }

  SpeedEstimate speed_;
  int max_ps_;
  int max_workers_;
  bool cache_enabled_;
  // NaN = not yet evaluated. Allocated lazily on the first in-grid probe so
  // jobs that are never probed (e.g. DRF rounds) cost nothing.
  std::vector<double> grid_;
  int64_t probes_ = 0;
  int64_t evals_ = 0;
  // Speculation state: whether the grid held points at BeginSpeculation()
  // (only then are new points journaled; otherwise a rollback empties the
  // grid), the journaled cells, and the counters at BeginSpeculation().
  bool speculating_ = false;
  bool journal_ = false;
  std::vector<size_t> speculated_;
  int64_t probes_before_ = 0;
  int64_t evals_before_ = 0;
};

// The surfaces of one scheduling round, keyed by job id. Jobs whose estimates
// and caps are equal share one surface: equal estimates are pointwise
// identical, so a point evaluated for one job is valid for all of them.
//
// The surfaces live in one stable-address container; the job and estimate
// indexes are hash maps.
class SpeedSurfaceSet {
 public:
  explicit SpeedSurfaceSet(bool cache_enabled = true)
      : cache_enabled_(cache_enabled) {}

  // Returns the surface for `job`, creating (or sharing) it on first use. The
  // returned pointer stays valid for the set's lifetime.
  SpeedSurface* Surface(const SchedJob& job);

  // job.speed(p, w) as a round reads it: inline for the closed-form kinds,
  // counted as one probe and one eval; through the job's surface otherwise.
  double Speed(const SchedJob& job, int p, int w);
  // Counts `evals` inline evaluations made on the set's behalf, each one
  // probe and one eval.
  void CountInline(int64_t evals) { inline_evals_ += evals; }

  bool cache_enabled() const { return cache_enabled_; }
  size_t num_surfaces() const { return surfaces_.size(); }

  // Lends `surface`, which the caller owns, as the surface of `job_id` until
  // Unlend(job_id); `job_id` must have no surface in the set yet. Lent
  // surfaces are left out of the aggregate counters. What-if admission lends
  // each candidate a private surface, so a set that outlives one query never
  // keeps a candidate's surface: the next candidate may reuse the id for
  // another model.
  void Lend(int job_id, SpeedSurface* surface);
  void Unlend(int job_id);

  // Unindexes `job`'s surface, whose estimate points at storage about to die
  // (the goodput composite's context): later lookups never find it, so a new
  // context at the same address cannot alias it. The surface keeps counting
  // in the aggregates; its memo is freed.
  void Retire(const SchedJob& job);

  // Aggregate counters over all distinct surfaces (shared surfaces counted
  // once) plus the inline evaluations.
  int64_t probes() const;
  int64_t evals() const;
  // Fraction of probes served from the memo table; 0 when nothing was probed.
  double hit_rate() const;

 private:
  struct EstimateKey {
    SpeedEstimate speed;
    int max_ps;
    int max_workers;
    bool operator==(const EstimateKey&) const = default;
  };
  struct EstimateHash {
    size_t operator()(const EstimateKey& key) const;
  };

  bool cache_enabled_;
  std::deque<SpeedSurface> surfaces_;
  std::unordered_map<int, SpeedSurface*> by_job_;
  std::unordered_map<EstimateKey, SpeedSurface*, EstimateHash> by_estimate_;
  int64_t inline_evals_ = 0;
};

}  // namespace optimus

#endif  // SRC_SCHED_SPEED_SURFACE_H_
