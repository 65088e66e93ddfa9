// Deep-learning training jobs: static specification and runtime state.
//
// A job trains one Table-1 model in synchronous or asynchronous mode until its
// observed training loss converges (§2.1): the relative per-epoch loss
// decrease stays below the owner-specified threshold for `patience`
// consecutive epochs. The scheduler adjusts the job's worker / parameter-
// server counts between scheduling intervals; each adjustment costs a
// checkpoint-restart stall (§5.4).

#ifndef SRC_CLUSTER_JOB_H_
#define SRC_CLUSTER_JOB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/cluster/resources.h"
#include "src/models/loss_curve.h"
#include "src/models/model_zoo.h"
#include "src/pserver/comm_model.h"

namespace optimus {

struct JobSpec {
  int id = 0;
  const ModelSpec* model = nullptr;
  TrainingMode mode = TrainingMode::kSync;
  // Communication architecture: parameter-server (the paper's setting) or
  // ring all-reduce. All-reduce jobs are always synchronous and run no PS
  // tasks (the scheduler treats max_ps as 0 and ps_demand as zero).
  CommMode comm = CommMode::kParameterServer;
  // Convergence threshold delta: relative per-epoch training-loss decrease
  // below which an epoch counts toward convergence (§6.1 varies it in
  // [0.01, 0.05]).
  double convergence_delta = 0.02;
  int patience = 3;
  // Global batch M for sync; per-worker m for async. 0 selects model default.
  int global_batch = 0;
  int async_minibatch = 0;
  // Per-container resource requests, fixed by the job owner (§2.3).
  Resources worker_demand;
  Resources ps_demand;
  double arrival_time_s = 0.0;
  // Dataset downscaling factor (§6.1 shrinks large datasets so an experiment
  // finishes in hours); 1.0 = full dataset.
  double dataset_scale = 1.0;
  // Upper bound on workers / parameter servers the job can use.
  int max_workers = 32;
  int max_ps = 32;
  // Optional learning-rate decay event (§7 "Convergence estimation"): after
  // this epoch the true loss follows a steeper second segment, and Optimus
  // restarts its online convergence fitting.
  std::optional<LearningRateDrop> lr_drop;

  // Admissible global-batch range for batch-adaptive policies (sync jobs
  // only). 0 selects the model's advertised range; a job-level batch_min ==
  // batch_max pins the batch (disables adaptivity).
  int batch_min = 0;
  int batch_max = 0;
  // Per-job sensitivity overrides for resource-sensitive policies; negative
  // (the default) selects the model's profile.
  double cpu_sensitivity = -1.0;
  double mem_sensitivity = -1.0;

  int GlobalBatch() const;
  int AsyncMinibatch() const;
  // Steps per epoch after dataset downscaling (>= 1).
  int64_t StepsPerEpoch() const;

  // Resolved batch-adaptivity range / sensitivity profile (job override, else
  // model default).
  int BatchMin() const;
  int BatchMax() const;
  double CpuSensitivity() const;
  double MemSensitivity() const;
  // Gradient noise scale phi of the model's statistical-efficiency curve.
  double GradNoiseScale() const;
};

enum class JobState {
  kPending,    // arrived, not yet given resources
  kRunning,
  kPaused,     // allocated zero resources this interval (placement overflow)
  kCompleted,
};

const char* JobStateName(JobState state);

class Job {
 public:
  explicit Job(JobSpec spec);

  const JobSpec& spec() const { return spec_; }
  int id() const { return spec_.id; }
  JobState state() const { return state_; }
  void set_state(JobState state) { state_ = state; }

  // --- Training progress -------------------------------------------------
  double steps_done() const { return steps_done_; }
  double EpochsDone() const;
  // Advances training by `steps` (fractional steps accumulate).
  void AdvanceSteps(double steps);

  // Records the observed mean training loss of a completed epoch and
  // re-evaluates convergence. Returns true when the job just converged.
  bool RecordEpochLoss(double loss);
  bool converged() const { return converged_; }
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }

  // --- Resource allocation -----------------------------------------------
  int num_workers() const { return num_workers_; }
  int num_ps() const { return num_ps_; }
  const JobPlacement& placement() const { return placement_; }
  // Applies a new allocation; if the (p, w) pair changed while the job had
  // been running, a checkpoint-restart scaling event is counted and the
  // caller is expected to add the corresponding stall.
  // Returns true when this constitutes a scaling event.
  bool SetAllocation(int num_ps, int num_workers, JobPlacement placement);

  // Scheduler-chosen global batch override (batch-adaptive policies). 0 =
  // run at the configured spec batch. Epoch bookkeeping stays denominated in
  // reference-batch steps; the override only changes the job's effective
  // speed (see Simulator::TrueSpeed).
  int batch_override() const { return batch_override_; }
  void set_batch_override(int batch) { batch_override_ = batch; }

  // --- Checkpoint / rollback (fault tolerance, §5.4) -----------------------
  // Records the current progress (steps plus convergence bookkeeping) as the
  // latest durable checkpoint. Called on every scaling event (Optimus saves
  // the model to scale) and optionally on a periodic schedule.
  void TakeCheckpoint();
  double checkpoint_steps() const { return checkpoint_steps_; }
  // A crash destroyed everything since the last checkpoint: restores steps
  // and the convergence-detection state recorded by TakeCheckpoint. Stall and
  // scaling accounting are unaffected. Returns the number of steps lost.
  double RollbackToCheckpoint();

  // --- Stalls (checkpoint scaling, straggler replacement) -----------------
  double stall_remaining_s() const { return stall_remaining_s_; }
  void AddStall(double seconds);
  // Consumes up to `dt` seconds of stall; returns the seconds actually
  // consumed (training cannot progress during them).
  double ConsumeStall(double dt);
  double total_stall_s() const { return total_stall_s_; }
  int num_scalings() const { return num_scalings_; }

  // --- Stragglers ----------------------------------------------------------
  double slowest_worker_factor() const { return slowest_worker_factor_; }
  void set_slowest_worker_factor(double f) { slowest_worker_factor_ = f; }

  // --- Completion ----------------------------------------------------------
  double completion_time_s() const { return completion_time_s_; }
  void MarkCompleted(double now_s);
  // Job completion time (JCT) = completion - arrival.
  double Jct() const;

 private:
  JobSpec spec_;
  JobState state_ = JobState::kPending;

  double steps_done_ = 0.0;
  int64_t epochs_recorded_ = 0;
  std::vector<double> epoch_losses_;
  int below_threshold_streak_ = 0;
  bool converged_ = false;

  int num_workers_ = 0;
  int num_ps_ = 0;
  JobPlacement placement_;
  bool ever_allocated_ = false;
  int batch_override_ = 0;

  double checkpoint_steps_ = 0.0;
  int64_t checkpoint_epochs_recorded_ = 0;
  int checkpoint_streak_ = 0;

  double stall_remaining_s_ = 0.0;
  double total_stall_s_ = 0.0;
  int num_scalings_ = 0;

  double slowest_worker_factor_ = 1.0;

  double completion_time_s_ = -1.0;
};

}  // namespace optimus

#endif  // SRC_CLUSTER_JOB_H_
