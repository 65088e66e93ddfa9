// Job bookkeeping of one simulation (src/sim/simulator.h): a job is pending (a
// spec waiting for its arrival), live (a JobRuntime the simulator steps) or
// retired (a completed runtime folded into a snapshot). Order keys are input
// positions, then N + k for the k-th submission; specs leave in (arrival, order
// key) order and the live set stays in order-key order, so every walk is one
// fixed sequence. Building, stepping and completing a runtime are the
// Simulator's.

#ifndef SRC_SIM_JOB_TABLE_H_
#define SRC_SIM_JOB_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/data_serving.h"
#include "src/cluster/job.h"
#include "src/common/min_heap.h"
#include "src/common/rng.h"
#include "src/models/loss_curve.h"
#include "src/perfmodel/convergence_model.h"
#include "src/perfmodel/speed_model.h"
#include "src/pserver/block_assignment.h"

namespace optimus {

class InvariantAuditor;

// One job's state at an instant, copied out of its pending spec, live runtime
// or retired record: a value, safe to hold across stepping calls.
struct JobSnapshot {
  int id = 0;
  JobState state = JobState::kPending;
  bool killed = false;  // cancelled via KillJob
  int num_ps = 0;
  int num_workers = 0;
  int num_scalings = 0;
  double arrival_time_s = 0.0;
  double completion_time_s = -1.0;  // -1 until completed
  double jct_s = 0.0;               // completion - arrival; 0 until completed
  double steps_done = 0.0;
  double epochs_done = 0.0;
  double checkpoint_steps = 0.0;
  double last_epoch_loss = 0.0;  // 0 before the first completed epoch
  double total_stall_s = 0.0;
};

JobSnapshot SnapshotOf(const Job& job, bool killed);

// A live job: its training state, its online models and its ground truth.
struct JobRuntime {
  // The job's two RNG streams are split off `sim_rng` by job id, straight
  // into their members.
  JobRuntime(JobSpec spec, size_t order_key, const Rng& sim_rng)
      : key(order_key),
        job(spec),
        curve(spec.lr_drop.has_value()
                  ? LossCurve(spec.model->loss, spec.StepsPerEpoch(), *spec.lr_drop)
                  : LossCurve(spec.model->loss, spec.StepsPerEpoch())),
        rng(sim_rng.Split(static_cast<uint64_t>(spec.id) + 1000)),
        fault_rng(sim_rng.Split(static_cast<uint64_t>(spec.id) + 500000)) {}

  size_t key;  // order key
  Job job;
  LossCurve curve;
  std::unique_ptr<ConvergenceModel> conv;
  std::unique_ptr<SpeedModel> speed;
  std::unique_ptr<DataServing> data;
  PaaLoadTable* blocks = nullptr;  // shared per model (Simulator::param_blocks_)
  PsLoadMetrics load;
  bool load_valid = false;
  Rng rng;
  // Dedicated stream for fault draws so enabling faults does not perturb
  // the training/noise streams of an un-faulted run.
  Rng fault_rng;
  int error_sign = 1;
  // Per-container bandwidth (bytes/s) the network model resolved for this
  // job at the last RefreshNetwork; 0 = use the flat CommConfig bandwidth.
  double net_bw_bps = 0.0;
  bool killed = false;  // cancelled via KillJob; excluded from JCT stats
  bool lr_drop_handled = false;    // convergence model restarted at the drop
  double true_total_epochs = 0.0;  // ground-truth convergence epoch count
  double last_worker_util = 0.0;
  double last_ps_util = 0.0;
  // Fault-tolerance state: relaunch backoff after repeated evictions.
  int consecutive_evictions = 0;
  double backoff_until_s = -1.0;
  double last_checkpoint_time_s = 0.0;

  // --- Event-engine segment state (simulator_events.cc) ------------------
  // While seg_active, the job trains at seg_speed steps/s from seg_anchor_s
  // onward (any stall_remaining_s is served first); seg_next_epoch is the
  // next unobserved epoch boundary, reached at seg_next_s by the job's own
  // walk (WalkEpochs).
  bool seg_active = false;
  double seg_next_s = 0.0;
  double seg_anchor_s = 0.0;
  double seg_speed = 0.0;        // post-noise, post-slowdown steps/s
  double seg_noise = 1.0;        // the round's noise draw, kept so a
                                 // mid-round slowdown edge can recompute
                                 // seg_speed without a fresh draw
  int64_t seg_next_epoch = 0;
  // Speed-model measurement snapshotted at segment rebuild and fed at the
  // next round's model refresh (the (p, w) the measured span ran at, the
  // speed at the configured batch: Simulator::SpeedSampleAt).
  SpeedSample seg_sample;
  bool ran_since_round = false;  // trained since the last model refresh
  // What the job's last walk left for the serial merge: the boundaries it
  // walked, the last one's time, and its shared effects (a completion at
  // completed_epoch, an lr drop at lr_drop_s).
  struct EpochWalk {
    int64_t epochs = 0;
    double last_s = 0.0;
    int64_t completed_epoch = 0;  // 0 = did not complete
    bool lr_drop = false;
    double lr_drop_s = 0.0;
  } walk;
};

class JobTable {
 public:
  // Where a known job id lives: its order key, its runtime while live, and
  // its retired record once retired.
  struct JobRef {
    size_t key = 0;
    JobRuntime* live = nullptr;
    std::optional<size_t> retired;
  };
  // Model-fit stats over every materialized job, retired runtimes included
  // through their folded aggregates.
  struct Totals {
    ModelFitStats conv;
    ModelFitStats speed;
  };

  // `specs` in any arrival order; each spec's position is its order key.
  explicit JobTable(std::vector<JobSpec> specs);

  // Order keys handed out so far: the input specs plus every submission.
  size_t keys() const { return pending_specs_.size(); }
  // Queues `spec` with the next order key. False, queueing nothing, when its
  // id is already known.
  bool Submit(const JobSpec& spec);
  // Order key of the earliest pending spec by (arrival, order key), or
  // nullopt. Drops consumed entries from the heads of the queue first.
  std::optional<size_t> PendingHead();
  // Earliest arrival time of a pending spec (+inf if none).
  double NextArrival();
  // Moves pending spec `key` out of the queue; its slot becomes consumed.
  JobSpec Take(size_t key);
  // Adds a runtime built from a taken spec to the live set at its order
  // key's place. Fatal when another order key holds its id.
  JobRuntime* Insert(std::unique_ptr<JobRuntime> runtime);
  // The live set in order-key order, for one walk: adds its size to visits().
  const std::vector<std::unique_ptr<JobRuntime>>& Live() const {
    visits_ += static_cast<int64_t>(live_.size());
    return live_;
  }
  // Retires every completed live runtime: keeps its snapshot and fit stats,
  // hands its id to auditor->NoteRetired, and frees it.
  void RetireCompleted(InvariantAuditor* auditor);
  // Where job `id` lives, or null for an unknown id. The first call indexes
  // the pending input specs by id, so a run that never asks never pays.
  const JobRef* Find(int id) const;
  // Job `id`'s state now, whether pending, live or retired. Fatal on an
  // unknown id.
  JobSnapshot Snapshot(int id) const;
  // Calls fold(const JobSnapshot&) for every materialized job in order-key
  // order, retired records merged with live runtimes, so a floating-point
  // fold is one fixed sequence however the jobs were admitted and retired.
  template <typename Fold>
  void ForEachSnapshot(Fold&& fold);

  // Runtimes built so far, retired ones included.
  int materialized() const { return static_cast<int>(live_.size() + retired_.size()); }
  int retired() const { return static_cast<int>(retired_.size()); }
  // Runtimes visited by the walks over the live set so far.
  int64_t visits() const { return visits_; }
  // Walked at most once per change, however many views read it: code that
  // fits models marks the totals stale.
  const Totals& totals() const;
  void MarkTotalsStale() { totals_stale_ = true; }

 private:
  // Adds `id` at `key` to the by-id index (the only insertion). Fatal when
  // another order key holds the id.
  JobRef& AddRef(int id, size_t key) const;
  void IndexPending() const;

  // Every spec not yet admitted, indexed by order key. A consumed slot
  // (admitted, or killed before arrival) is reset to JobSpec{} (null model).
  // The cursor walks the input's arrival-sorted prefix; the heap holds the
  // rest of the input and every submission.
  std::vector<JobSpec> pending_specs_;
  size_t pending_next_ = 0;
  size_t pending_sorted_end_ = 0;
  MinHeap<std::pair<double, size_t>, std::less<>> pending_heap_;  // (arrival, key)
  // Every materialized or submitted job, and every pending input spec once
  // IndexPending ran. Looked up, never iterated.
  mutable std::unordered_map<int, JobRef> job_refs_;
  mutable bool pending_indexed_ = false;
  std::vector<std::unique_ptr<JobRuntime>> live_;
  mutable int64_t visits_ = 0;
  // A retired runtime's final state, appended at retirement; ForEachSnapshot
  // sorts the records into order-key order.
  struct RetiredJob {
    size_t key;
    JobSnapshot snapshot;
  };
  std::vector<RetiredJob> retired_;
  // Fit-stat totals of retired runtimes (integer sums, so folding an
  // aggregate keeps the totals bitwise).
  ModelFitStats retired_conv_stats_;
  ModelFitStats retired_speed_stats_;
  mutable Totals totals_;
  mutable bool totals_stale_ = true;
};

template <typename Fold>
void JobTable::ForEachSnapshot(Fold&& fold) {
  std::sort(retired_.begin(), retired_.end(),
            [](const RetiredJob& a, const RetiredJob& b) { return a.key < b.key; });
  for (size_t i = 0; i < retired_.size(); ++i) {
    job_refs_.at(retired_[i].snapshot.id).retired = i;
  }
  auto retired = retired_.begin();
  for (const auto& jr : Live()) {
    for (; retired != retired_.end() && retired->key < jr->key; ++retired) {
      fold(retired->snapshot);
    }
    fold(SnapshotOf(jr->job, jr->killed));
  }
  for (; retired != retired_.end(); ++retired) {
    fold(retired->snapshot);
  }
}

}  // namespace optimus

#endif  // SRC_SIM_JOB_TABLE_H_
