// Production-facing Optimus controller (§5.5).
//
// On a real cluster Optimus runs as a pod that polls the Kubernetes master
// for cluster and job state, keeps per-job performance models, and rewrites
// each job's worker/parameter-server deployment every scheduling interval,
// persisting its state to etcd so a restarted controller resumes seamlessly.
//
// This class is that controller as a library, decoupled from any cluster
// substrate: callers register jobs (with their (p, w) pre-run measurements),
// report per-interval observations (new loss points, measured speed,
// progress), and ask for a scheduling decision against the current server
// state. Fault tolerance is modeled by SaveState()/RestoreState(): the
// snapshot carries every job's spec, progress, and model samples, and a
// restored controller refits its models and produces identical decisions.
//
// The discrete-time simulator (src/sim) drives the same building blocks with
// a tighter loop; this API is the integration surface a real deployment (or a
// different simulator) would use.

#ifndef SRC_CONTROLLER_CONTROLLER_H_
#define SRC_CONTROLLER_CONTROLLER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/checkpoint.h"
#include "src/cluster/job.h"
#include "src/cluster/server.h"
#include "src/perfmodel/convergence_model.h"
#include "src/perfmodel/speed_model.h"
#include "src/sched/placement.h"
#include "src/sched/scheduler.h"

namespace optimus {

struct ControllerOptions {
  PlacementPolicy placement = PlacementPolicy::kOptimusPack;
  // Marginal-gain damping for jobs below the progress cutoff (§4.1).
  double young_job_priority_factor = 0.95;
  double young_job_progress_cutoff = 0.15;
  // Remaining-epochs prior before the convergence model has enough data.
  double default_remaining_epochs = 30.0;
  CheckpointConfig checkpoint;
};

// Per-interval report from a running job (what the training framework and
// the cluster monitor can observe).
struct JobObservation {
  int job_id = 0;
  // Cumulative steps completed.
  double steps_done = 0.0;
  // Loss points collected since the last report.
  std::vector<LossSample> new_loss_points;
  // Measured training speed over the last interval (steps/s; <= 0 if none).
  double measured_speed = 0.0;
};

struct ScheduleDecision {
  // job_id -> allocation, for every job placed this interval.
  std::map<int, Allocation> allocations;
  std::map<int, JobPlacement> placements;
  // Jobs that received no placeable resources this interval.
  std::vector<int> paused;
};

class OptimusController {
 public:
  explicit OptimusController(ControllerOptions options = {});

  // --- Job lifecycle -------------------------------------------------------
  // Registers a new job with the speed measurements from its (p, w) pre-run.
  void RegisterJob(const JobSpec& spec, const std::vector<SpeedSample>& pre_run);
  // Feeds fresh observations into the job's online models.
  void ReportObservation(const JobObservation& observation);
  // Restarts the job's convergence fitting (learning-rate change, §7).
  void NotifyLearningRateChange(int job_id);
  // Removes a finished (or killed) job.
  void CompleteJob(int job_id);

  bool HasJob(int job_id) const;
  size_t num_jobs() const { return jobs_.size(); }

  // --- Scheduling ----------------------------------------------------------
  // One full rescheduling round against the given servers (their *capacities*
  // are used; the controller owns all DL allocations). Updates each job's
  // current allocation to the decision.
  ScheduleDecision Schedule(const std::vector<Server>& servers);

  // --- Introspection -------------------------------------------------------
  double EstimateRemainingEpochs(int job_id) const;
  // Estimated speed (steps/s) at a hypothetical allocation; 0 when unknown.
  double EstimateSpeed(int job_id, int num_ps, int num_workers) const;
  Allocation CurrentAllocation(int job_id) const;

  // --- Fault tolerance (§5.5) ----------------------------------------------
  // Serializes all controller state (specs, progress, model samples,
  // current allocations) into a text snapshot.
  std::string SaveState() const;
  // Rebuilds a controller from a snapshot; models are refitted from their
  // samples, so subsequent decisions match the original controller's.
  // Returns nullptr on a malformed snapshot.
  static std::unique_ptr<OptimusController> RestoreState(const std::string& snapshot,
                                                         ControllerOptions options = {});

 private:
  struct ManagedJob {
    JobSpec spec;
    double steps_done = 0.0;
    Allocation current;
    ConvergenceModel convergence;
    SpeedModel speed{TrainingMode::kSync, 1};
    int rescalings = 0;
  };

  SchedJob MakeSchedJob(const ManagedJob& job) const;
  const ManagedJob& Get(int job_id) const;
  ManagedJob& Get(int job_id);

  ControllerOptions options_;
  std::map<int, ManagedJob> jobs_;
};

}  // namespace optimus

#endif  // SRC_CONTROLLER_CONTROLLER_H_
