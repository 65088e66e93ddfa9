// Discrete-time cluster simulator.
//
// Mirrors the paper's evaluation methodology: schedulers make decisions at
// scheduling-interval boundaries (10 minutes by default); between boundaries
// every running job advances at its ground-truth training speed (Eqn 2 with
// placement, PS-load and straggler effects) and emits the observables a real
// framework would: per-step training losses and measured speeds. Optimus's
// online models are fitted from those observables only; an oracle mode
// bypasses fitting and injects controlled prediction errors (Fig 15).

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/min_heap.h"
#include "src/common/threadpool.h"

#include "src/cluster/checkpoint.h"
#include "src/cluster/data_serving.h"
#include "src/cluster/job.h"
#include "src/cluster/server.h"
#include "src/cluster/straggler.h"
#include "src/common/rng.h"
#include "src/models/loss_curve.h"
#include "src/models/param_blocks.h"
#include "src/net/network_model.h"
#include "src/obs/exporters.h"
#include "src/obs/phase_profiler.h"
#include "src/perfmodel/convergence_model.h"
#include "src/perfmodel/speed_model.h"
#include "src/pserver/block_assignment.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sched/scheduler.h"
#include "src/sched/scheduler_registry.h"
#include "src/sched/what_if.h"
#include "src/sim/event_kernel.h"
#include "src/sim/fault_injector.h"
#include "src/sim/invariant_auditor.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace optimus {

// Controlled prediction-error injection (Fig 15): estimates are multiplied by
// (1 +/- e * (1 - progress)); the sign is drawn once per job.
struct ErrorInjection {
  double convergence_error = 0.0;
  double speed_error = 0.0;
};

// Observability subsystem (src/obs): metrics registry, flight recorder, and
// per-interval series sampling. All of it is derived from simulated state in
// serial phases, never draws from any RNG stream, and never feeds back into
// decisions — enabling or disabling it leaves every simulation output
// bitwise unchanged.
struct ObservabilityConfig {
  // Master switch: when false no metrics are registered, no flight events
  // are recorded, and no per-interval sampling happens. (The phase profiler
  // still accumulates the wall_* fields of RunMetrics.)
  bool enabled = true;
  // Flight-recorder ring depth in events; 0 disables the recorder.
  int flight_recorder_depth = 256;
  // Snapshot every deterministic scalar metric once per interval into the
  // run report's time series. Off by default (O(metrics) memory/interval).
  bool per_interval_series = false;
};

// Run-loop engine. Both engines share the policy path (fault pipeline,
// scheduling rounds, auditing) and the determinism contract; they differ in
// how simulated time advances between rounds. kInterval polls every job once
// per interval; kEvents (src/sim/event_kernel.h) advances jobs lazily between
// their own analytically-computed events. The interval engine is the parity
// baseline; see docs/ALGORITHMS.md §16 for the documented tolerance.
enum class SimEngine {
  kInterval,
  kEvents,
};

const char* SimEngineName(SimEngine engine);
// Parses "interval" / "events"; returns false on anything else.
bool ParseSimEngine(const std::string& name, SimEngine* out);

struct SimulatorConfig {
  SimEngine engine = SimEngine::kInterval;
  // Policy-table name (scheduler_registry.h): the policy's only identity. It
  // constructs the allocator and supplies the scaling_hysteresis trait; the
  // per-run toggles below (placement, use_paa, straggler handling, young-job
  // damping) are copied from its traits by ApplySchedulerPolicy
  // (experiment.h), so an ablation can set `policy` alone to swap only the
  // allocator. Must name a row of the table.
  std::string policy = "optimus";
  PlacementPolicy placement = PlacementPolicy::kOptimusPack;
  double interval_s = 600.0;
  CommConfig comm;
  // Network fidelity model (src/net): `flat` (the default) keeps the
  // CommConfig flat per-container bandwidth and is bitwise identical to the
  // pre-network-model simulator; `topology` and `contention` derive per-job
  // bandwidths from a NIC/rack-uplink fabric built over `rack_size`-wide
  // racks. Per-job bandwidths are refreshed serially at scheduling rounds
  // (and fault edges, on the event engine), so outputs stay bitwise
  // identical across thread counts.
  NetworkConfig net;
  CheckpointConfig checkpoint;
  StragglerConfig straggler;
  // PAA (§5.3) vs MXNet-default parameter-block assignment.
  bool use_paa = true;
  // Multiplicative runtime noise on each interval's true speed.
  double runtime_noise_sd = 0.03;
  // Convergence-model feeding (interval engine): loss samples per interval.
  int conv_samples_per_interval = 20;
  // Convergence-fit fidelity: cap on the points handed to the NNLS solver
  // after downsampling (0 = the model's default, 512). Higher values fit the
  // full loss history — affordable with the Gram-cached refits, linearly
  // costly on the from-scratch path.
  int conv_fit_points = 0;
  // Marginal-gain damping for young jobs (§4.1; 1.0 = off, 0.95 = paper's
  // suggested factor) applied while progress < kYoungJobProgressCutoff.
  double young_job_priority_factor = 1.0;
  // Ablation: replace the fitted Eqn-3/4 speed model with the naive
  // assumption of linear speedup in workers (f(p, w) = w * f(1, 1)). Shows
  // how much of Optimus's gain comes from the performance model itself.
  bool naive_linear_speed = false;
  // Oracle mode (used by sensitivity/scalability studies): ground-truth
  // estimates with `error` injected instead of online fitting.
  bool oracle_estimates = false;
  ErrorInjection error;
  // Threads for the per-job phases: arrival-time speed-model pre-run
  // sampling and interval advancement (interval engine); model refits
  // (events engine). threads = N means N runners, the
  // simulator's own thread included (N - 1 spawned workers), so 4 never
  // oversubscribes a 4-core host. The scheduling round (allocation and
  // placement) and epoch-event handling are serial. Each job owns its
  // RNG streams and all cross-job effects (trace events, aggregate stats)
  // are buffered per job and merged in job order, so results are bitwise
  // identical for any thread count.
  // 0 defers to the OPTIMUS_THREADS environment variable (1 = serial).
  int threads = 1;
  // Data serving (§5.1): seconds to hand one 128 MB chunk to a new owner
  // when elastic scaling rebalances the per-worker data assignment. The
  // resulting stall is tiny next to the checkpoint cost, as in the paper.
  double chunk_move_s = 0.2;
  // Mixed-workload headroom (§7 "Various workloads"): a fraction of every
  // server is reserved for a non-DL background workload. With a period, the
  // reservation oscillates sinusoidally between 0 and background_share, and
  // Optimus schedules DL jobs on the varying remainder.
  double background_share = 0.0;
  double background_period_s = 0.0;
  double max_sim_time_s = 3e6;
  uint64_t seed = 1;
  bool record_timeline = true;
  // Fault injection (server crashes, task failures, slowdown bursts); see
  // src/sim/fault_injector.h and docs/FAULTS.md. Default: no faults.
  FaultConfig fault;
  // Invariant auditing: re-derive and check cluster invariants every
  // interval (src/sim/invariant_auditor.h). On by default; violations are
  // counted in RunMetrics and reported at the end of Run().
  bool audit = true;
  // Per-server load is maintained by deltas at placement/eviction/completion
  // time and checked in O(changed); every full_audit_period-th check (every
  // check at a period <= 1) re-derives everything from first principles and
  // cross-checks the incremental tracker against it.
  int full_audit_period = 16;
  // Observability: metrics registry, flight recorder, series sampling.
  ObservabilityConfig obs;
  // `shards` and `streaming` are read by nothing: placement keeps one server
  // heap, and every run admits specs through one pending queue and retires
  // completed jobs. Only the benchmark ledger (bench/ledger) still writes
  // them; they go in the change that updates the ledger's key set.
  int shards = 1;
  // Rack width in contiguous server ids (the scenario DSL's
  // `cluster.rack_size`), read by rack-aware placement and the network
  // fabric; 0 = one rack spans the cluster.
  int rack_size = 0;
  // See `shards`.
  bool streaming = false;
  // Hash-only event trace: records update the trace's running FNV digest and
  // count but are not stored, so the trace costs O(1) memory at million-job
  // scale. The digest is maintained (identically) in both modes, so sweeps
  // can compare traces across configurations either way.
  bool trace_hash_only = false;

  // Field-by-field validation. Appends one "field: problem" message per
  // violated constraint to `errors` (when non-null) and returns whether the
  // config is valid. The Simulator constructor enforces this, so callers that
  // hand-assemble configs get field-specific diagnostics instead of a crash
  // deep inside the run; scenario loading (src/workload/scenario.h) and the
  // CLI reuse the same path.
  bool Validate(std::vector<std::string>* errors) const;

  // Fatal (with the joined field errors) when invalid; returns *this so call
  // sites can validate in an initializer expression.
  const SimulatorConfig& CheckValid() const;
};

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

class Simulator {
 public:
  // `specs` may come in any arrival order; each spec's position is its order
  // key, and jobs are admitted in (arrival, order key) order.
  Simulator(SimulatorConfig config, std::vector<Server> servers,
            std::vector<JobSpec> specs);

  // Runs to completion (or the time cap) and returns the metrics.
  RunMetrics Run();

  // Single-interval stepping (exposed for tests). Returns false once all
  // jobs have completed.
  bool StepInterval();

  // --- Re-entrant stepping / online mutation API (docs/ALGORITHMS.md §17) --
  // The online service mode (src/service) drives the simulator as a
  // long-lived object: time advances in caller-chosen increments and jobs
  // are registered and cancelled between advances. The contract is the
  // repo-wide one: for a fixed call sequence every output is bitwise
  // identical for any thread count, and a session whose submissions all land
  // before their jobs' arrival times is bitwise identical to a run
  // constructed with the full spec list up front (submissions appended).

  // Advances simulated time through `t` on either engine: the interval
  // engine steps whole intervals while now_s() < t; the event engine drains
  // every event with time <= t. Stops early once nothing can happen (all
  // jobs completed and none pending) or the time cap is reached. Safe to
  // call repeatedly; Run() may still be used afterwards to finish the run
  // and aggregate RunMetrics.
  void AdvanceTo(double t);

  // Registers a job while the simulator is live. The spec's arrival time
  // must be at or after now_s() (the past has already been simulated) and
  // its id must be unused. On success the job behaves exactly as if it had
  // been appended to the constructor's spec list (its order key is N + k for
  // the k-th submission). Returns false (with a
  // diagnostic in *error, when non-null) on a duplicate id, a null model, or
  // an arrival in the past.
  bool SubmitJob(const JobSpec& spec, std::string* error = nullptr);

  // Cancels a job: releases its allocation, marks it completed at now_s()
  // without convergence, and records a kKilled trace event. Killed jobs
  // count as completed in the accounting invariants (the auditor's census
  // checks completed states against the completion metric) but are excluded
  // from the JCT histogram — they did not converge. A job killed before its
  // arrival gets its runtime built only to be killed, and never arrives.
  // Returns false when the id is unknown or the job already completed.
  bool KillJob(int job_id, std::string* error = nullptr);

  // What-if admission query (§ "what-if analysis"): evaluates admitting
  // `candidate` against the jobs and capacity the *next* scheduling round
  // would see, using a second allocator instance so the query perturbs no
  // simulator state — counters, RNG streams, and model fits are untouched,
  // which keeps a session with interleaved queries bitwise identical to one
  // without them. The candidate's speed estimate is the analytic
  // ground-truth model (the oracle path) and its remaining epochs the
  // scheduler's prior for unfitted jobs.
  //
  // The baseline (the round without the candidate) is built once and reused
  // by every query until a mutating call (AdvanceTo, StepInterval, Run,
  // SubmitJob, KillJob) bumps the state generation. A candidate whose id is
  // a schedulable job's is compared against an uncached baseline without
  // that job. Answers are bitwise those of a fresh pair of allocations
  // (src/sched/what_if.h).
  WhatIfResult WhatIf(const JobSpec& candidate);

  double now_s() const { return now_s_; }
  // The job's state now, whether it is pending, live or retired. Fatal on an
  // unknown id.
  JobSnapshot job(int id) const;
  // Metrics accumulated so far (Run() returns the final aggregate; this view
  // lets interval-stepping callers read counters without running to the end).
  const RunMetrics& metrics() const { return metrics_; }
  // Lifecycle event log of the run so far.
  const EventTrace& trace() const { return trace_; }
  // Network fabric model driving per-job bandwidths; null under the flat
  // (exact-compat) model. Stats are cumulative over the run's solves.
  const NetworkModel* network() const { return net_.get(); }
  // Job runtimes built so far: one per arrival, plus one per job killed
  // before its arrival. Retired runtimes still count.
  int materialized_jobs() const { return materialized_count_; }
  // Runtimes alive now: built and not yet retired.
  int live_jobs() const { return static_cast<int>(jobs_.size()); }
  // Runtimes visited by the walks over the live table so far (each walk adds
  // the table's size); shows that a round's cost tracks the live set.
  int64_t runtime_visits() const { return runtime_visits_; }
  // Invariant-audit results of the run so far (empty when audit is off).
  const InvariantAuditor& auditor() const { return auditor_; }
  // Observability views. The registry holds the named metric catalog (empty
  // when config.obs.enabled is false); the flight recorder holds the recent
  // structured-event tail (disabled at depth 0); the series holds the
  // per-interval snapshots (empty unless config.obs.per_interval_series).
  const MetricsRegistry& registry() const { return registry_; }
  const FlightRecorder& flight_recorder() const { return flight_; }
  const MetricsSeries& series() const { return series_; }
  // Whether `server_index` (index into the constructor's server list) is up.
  bool server_available(size_t server_index) const {
    return servers_[server_index].available();
  }

 private:
  // One speed-model measurement: the row (p, w) it lands on and the speed at
  // the configured batch (see SpeedSampleAt).
  struct SpeedSample {
    int num_ps = 0;
    int num_workers = 0;
    double speed = 0.0;
  };

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

    size_t key;  // order key: the spec's slot in pending_specs_
    Job job;
    LossCurve curve;
    std::unique_ptr<ConvergenceModel> conv;
    std::unique_ptr<SpeedModel> speed;
    std::unique_ptr<DataServing> data;
    PaaLoadTable* blocks = nullptr;  // shared per model (param_blocks_)
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
    bool lr_drop_handled = false;   // convergence model restarted at the drop
    int frozen_scalings = 0;  // set once the checkpoint budget is exhausted
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
    // next unobserved epoch boundary, reached at seg_next_s. Nothing in the
    // event queue stands for it: the job's walk (WalkEpochs) reaches it.
    bool seg_active = false;
    double seg_next_s = 0.0;
    double seg_anchor_s = 0.0;
    double seg_speed = 0.0;        // post-noise, post-slowdown steps/s
    double seg_noise = 1.0;        // the round's noise draw, kept so a
                                   // mid-round slowdown edge can recompute
                                   // seg_speed without a fresh draw
    int64_t seg_next_epoch = 0;
    // Speed-model measurement snapshotted at segment rebuild and fed at the
    // next round's model refresh (the (p, w) the measured span ran at).
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

  // What one job's interval advance left for the serial merge, which applies
  // the shared-state effects (trace events, auditor updates, the timeline) in
  // job order after the parallel per-job phase — the source of
  // thread-count-independent output. Everything else the merge records, the
  // (p, w) and utilization included, it reads from the runtime: completion
  // leaves the allocation in place.
  struct AdvanceOutcome {
    bool ran = false;        // job trained this interval
    bool completed = false;  // converged at an epoch boundary
    int64_t completed_epoch = 0;
    bool lr_drop = false;  // learning-rate drop crossed this interval
  };

  // One shared effect of an epoch walk, applied by the serial merge in the
  // queue's (time, kind, job_id) order: a completion, or an lr-drop record.
  struct WalkEffect {
    double time_s = 0.0;
    JobRuntime* jr = nullptr;
    bool completion = false;
  };

  // --- Event-engine run loop (simulator_events.cc) --------------------------
  // Processes every event and epoch boundary with time <= horizon (still
  // subject to the max_sim_time_s cap); Run() drains with horizon +inf and
  // the shared aggregation tail finishes the metrics either way.
  void StepEventsUntil(double horizon);
  // Seeds the queue at construction: one kFaultPlan per distinct scripted
  // fault-plan edge (also kept in fault_edges_s_), the first kRound, and the
  // first arrival.
  void SeedEvents();
  // Keeps the one live kArrival at the pending head's time: pushes it when
  // NextArrival() is earlier than the one already queued.
  void QueueNextArrival();
  // One popped arrival: drops it unless it is the live one, else admits this
  // instant's arrivals, restarts a stopped round chain at the first boundary
  // at or after t, and queues the next arrival.
  void HandleArrivalEvent(double t);
  // Advances a segment-active job's training to `t` (no epoch boundary in
  // (anchor, t): the walk stops at every boundary). Serves stall first.
  void SettleJob(JobRuntime* jr, double t);
  // Walks one job's epoch boundaries at or before `barrier` (and before the
  // max_sim_time_s cap): at each, settles to it, records the epoch loss,
  // feeds conv samples, applies an lr drop, and either marks the job
  // completed or computes the next boundary. Records the walk's shared
  // effects in jr->walk for the merge. Touches only jr-owned state.
  void WalkEpochs(JobRuntime* jr, double barrier);
  // Walks every segment up to `barrier`, counts the walked boundaries, and
  // fills walk_effects_ in merge order. Returns the latest walked boundary's
  // time (-inf if none).
  double WalkSegments(double barrier);
  // The job's pending boundary is superseded (re-anchored, evicted, killed
  // or rebuilt): deactivates the segment and queues a clock marker, a kEpoch
  // entry at the boundary's time that only moves now_s_ when it pops.
  void EndSegment(JobRuntime* jr);
  // A scripted fault-plan edge between rounds: apply server/slowdown
  // transitions at their exact time and re-anchor affected segments.
  void HandleFaultPlanEvent(double t);
  // The periodic Algorithm-1 round: settle everyone, refresh models, run the
  // shared fault pipeline + scheduling + audit, rebuild segments, sample, and
  // queue the next round. An idle round (no incomplete live job) only stops
  // the chain.
  void HandleRoundEvent(double t);
  // Per-dirty-job model refresh at a round: speed sample, then the lazy fits
  // unless the job completed in the span.
  void RefreshModels();
  // Draws the round's speed noise, recomputes each running job's segment and
  // its next boundary, and lists the active segments in segments_.
  void RebuildSegments();

  // Admits every pending spec whose arrival time is <= now_s_: builds its
  // runtime (MaterializeSpec), initializes its speed model and records its
  // kArrival, in order-key order.
  void ActivateArrivals();
  // Whether any live runtime has not completed: false means the cluster is
  // idle until the next arrival.
  bool AnyIncompleteLive() const;
  // Earliest arrival time of a pending spec (+inf if none).
  double NextArrival();
  // Order key of the earliest pending spec by (arrival, order key), or
  // nullopt. Drops consumed entries from the heads of the queue first.
  std::optional<size_t> PendingHead();
  // Moves pending spec `key` out of the queue; its slot becomes consumed.
  JobSpec TakePending(size_t key);
  // Indexes every pending input spec's id in job_refs_, once: the online
  // calls (SubmitJob, KillJob, job) look pending jobs up by id, and a run
  // that never makes one never pays for the index.
  void IndexPendingSpecs() const;
  // Per-job initialization (RNG streams split from the run seed by job id,
  // shared param blocks, data serving, ground-truth epoch count); inserts the
  // runtime into jobs_ at its order key's place and returns it.
  JobRuntime* MaterializeSpec(JobSpec pending, size_t key);
  // Retires every completed runtime: folds what Run()'s aggregation, job()
  // and the metric totals need into a RetiredJob record, hands the auditor
  // its NoteRetired, and frees the runtime. The interval engine sweeps at the
  // end of each step; the event engine sweeps at rounds after RefreshModels,
  // so a completed job's final trained span still records its speed sample
  // before the runtime is freed.
  void RetireCompleted();
  // The live table, for one walk: adds its size to runtime_visits_.
  const std::vector<std::unique_ptr<JobRuntime>>& Live() const {
    runtime_visits_ += static_cast<int64_t>(jobs_.size());
    return jobs_;
  }
  // Scheduler view of a job (estimates only).
  SchedJob MakeSchedJob(JobRuntime* jr) const;
  // Scheduler inputs of a round at the current instant: partitions active
  // jobs into schedulable and frozen (checkpoint budget spent) and derives
  // the slot-quantized capacity after the background reservation and the
  // frozen jobs' holdings. Shared by ScheduleActiveJobs and WhatIf so
  // admission queries see exactly what the next round would see.
  void CollectRoundInputs(std::vector<JobRuntime*>* schedulable,
                          std::vector<JobRuntime*>* frozen, Resources* capacity);
  // A what-if baseline over the next round's inputs, leaving out the job
  // `without_id` (when non-null).
  std::unique_ptr<AdmissionBaseline> MakeAdmissionBaseline(const int* without_id);
  double EstimateRemainingEpochs(const JobRuntime& jr) const;
  double ErrorFactor(const JobRuntime& jr, double error_magnitude) const;
  // Ground-truth step-time inputs of a live job: its current (p, w), the
  // batch it runs (a sync job's scheduler override, else the configured
  // one), PS load shape, placement, slowest worker and network share.
  static StepTimeInputs LiveStepInputs(const JobRuntime& jr);
  // Ground-truth job speed at the *current* allocation/placement (steps/s).
  double TrueSpeed(const JobRuntime& jr) const;
  void ScheduleActiveJobs();
  void AdvanceInterval();
  // Per-job interval step: trains the job, feeds its models, and records the
  // shared-state effects into `out`. Touches only jr-owned state, so calls
  // for distinct jobs are safe to run concurrently.
  void AdvanceJob(JobRuntime* jr, AdvanceOutcome* out);

  // --- Per-job observation steps, shared by both engines -------------------
  // Everything a job emits for Optimus's online models goes through these,
  // so the interval engine (AdvanceJob) and the event engine (epoch walks,
  // segment rebuilds, round refreshes) observe a job the same way. All touch
  // only jr-owned state unless noted.
  //
  // Draws the observed mean loss of epoch `epoch` (ground truth times a noise
  // factor from the job's stream) and records it; true when the job
  // converged at this epoch.
  bool ObserveEpochLoss(JobRuntime* jr, int64_t epoch);
  // Learning-rate decay (§7): the first time the job's epochs reach its drop
  // epoch, restarts the convergence fitting, since the old curve segment no
  // longer predicts the new one. True when the drop fired now.
  bool ApplyLrDrop(JobRuntime* jr);
  // Feeds the convergence models `n` per-step loss samples spread evenly over
  // (from_step, to_step]: the i-th at from + (to - from) * i / n.
  void FeedLossSamples(JobRuntime* jr, double from_step, double to_step, int n);
  // The speed-model row for a span the job trained at `speed` under its
  // current allocation: all-reduce jobs land on p = 1 (the grid their
  // estimates are read from; the job runs zero PS tasks), and under a
  // scheduler batch override the speed is converted back to the configured
  // batch, so the fitted surface stays denominated at the reference batch
  // that batch_speed() scales from.
  SpeedSample SpeedSampleAt(const JobRuntime& jr, double speed) const;
  // Refits the speed and convergence models.
  void FitModels(JobRuntime* jr) const;
  // Utilization snapshot (Fig 14) at the current allocation: compute-busy
  // share of a step on workers, update-busy share on parameter servers.
  void SnapshotUtilization(JobRuntime* jr) const;
  // Live tasks made progress: clears the eviction streak so the relaunch
  // backoff starts fresh next time.
  static void ResetEvictionStreak(JobRuntime* jr);
  // Simulated time at which a segment-active job reaches seg_next_epoch,
  // training at seg_speed from `t` after serving its stall.
  static double NextEpochTime(const JobRuntime& jr, double t);
  // Serial: records the span ending at `t` in the timeline (tasks and mean
  // utilizations over `trained`, the jobs that trained in it) and sets
  // running_tasks_.
  void RecordTimeline(double t, const std::vector<JobRuntime*>& trained);
  // The round boundary an idle cluster resumes at for an arrival at `t`: the
  // first from + k * interval_s at or after `t`, with k >= 1.
  double NextRoundAtOrAfter(double from, double t) const;

  // Fault pipeline, run before each scheduling round: periodic checkpoints,
  // scripted server crashes/recoveries (evicting affected jobs), task
  // failures, and the cluster-wide slowdown factor for this interval.
  void ApplyFaults();
  // Fault-injector edges due at now_s_, shared by both engines: the slowdown
  // factor, server recoveries and crashes, then an eviction of every job with
  // a task on a down server (settled to now_s_ first, which is a no-op unless
  // the job has an active event-engine segment). Sets *slow_changed when the
  // slowdown factor moved; returns whether any job was evicted.
  bool ApplyServerEdges(bool* slow_changed);
  // Evicts a job whose tasks died with a server: rolls progress back to the
  // last checkpoint, charges the restore stall, releases the allocation, and
  // applies the relaunch backoff policy.
  void EvictJob(JobRuntime* jr, const std::string& reason);
  // Serial merge of one converged job, shared by both engines: releases its
  // audited placement and emits kCompleted, with the allocation it finished
  // at, at the analytic completion time.
  void CompleteJob(JobRuntime* jr, int64_t epochs);
  // The one record of a lifecycle edge (src/obs/event_types.h): appends it to
  // the trace (in-trace kinds) and the flight ring (in-flight kinds), keeps
  // the RunMetrics tallies the edge implies, and on kCompleted feeds the JCT
  // and epoch histograms. `value` is the kind's numeric argument (epochs,
  // server id, factor, violation count) and `text` its string argument.
  // Serial contexts only.
  void Emit(double time_s, SimEventType type, int job_id, int num_ps = 0,
            int num_workers = 0, double value = 0.0, std::string text = "");
  void RunAudit();
  // Re-solves the network model over the current placements and refreshes
  // each running job's net_bw_bps. Serial (runs after scheduling and after
  // fault-edge evictions); no-op under the flat model. Returns true when any
  // job's bandwidth changed.
  bool RefreshNetwork();
  // Fraction of every server reserved for the background workload at time t.
  double BackgroundShare(double t) const;
  void RecomputeLoad(JobRuntime* jr);
  void InitSpeedModel(JobRuntime* jr);
  // Registers the metric catalog and profiler phases (constructor tail).
  // Counters and gauges are views of the live totals, read when the registry
  // is sampled or exported.
  void SetupObservability();
  // End-of-interval tick: counts the interval and samples the per-interval
  // series. Serial; runs after the interval's phases.
  void SampleObservability();
  // Copies the profiler's phase totals and the event-kernel count into the
  // RunMetrics fields that mirror them; runs at the end of every stepping call.
  void SyncRunMetrics();

  // Totals over every arrived job, retired runtimes included through their
  // folded aggregates: arrivals and per-job model-fit stats. Walked at most
  // once per change, however many views read it: ActivateArrivals,
  // AdvanceInterval, RefreshModels and KillJob (the only code that arrives
  // jobs or fits models) mark it stale.
  struct JobTotals {
    int64_t submitted = 0;
    ModelFitStats conv;
    ModelFitStats speed;
  };
  const JobTotals& job_totals() const;

  SimulatorConfig config_;
  std::vector<Server> servers_;
  // Placement's working copy of servers_ under the round's background share,
  // kept across rounds: a round restores only the servers the last one
  // touched. Built at the first round and rebuilt after an availability edge
  // (ApplyServerEdges invalidates it) or a background-share change; a cache,
  // never serialized.
  PlacementState placement_state_;
  // PlaceableCapacity(servers_, demand) memo: servers_ only changes
  // placement-relevant state (availability) on fault edges, which invalidate
  // the memo; a different reference demand recomputes it.
  Resources placeable_cap_cache_;
  Resources placeable_cap_demand_;
  bool placeable_cap_valid_ = false;
  // Live runtimes (arrived, not yet retired) in ascending order key: every
  // per-round and per-event walk visits exactly these.
  std::vector<std::unique_ptr<JobRuntime>> jobs_;
  mutable int64_t runtime_visits_ = 0;
  int materialized_count_ = 0;
  // Param blocks depend only on the model, so each model's are generated
  // once and shared by its jobs, together with their PAA order and
  // unweighted load per PS count (PaaLoadTable).
  std::unordered_map<const ModelSpec*, PaaLoadTable> param_blocks_;

  // --- Pending queue -----------------------------------------------------
  // Every spec not yet admitted, indexed by order key: the constructor's
  // specs at their input positions, then online submissions (N + k for the
  // k-th). A consumed slot (admitted, or killed before arrival) is reset to
  // JobSpec{} (null model). Specs leave in (arrival, order key) order: the
  // cursor walks the input's arrival-sorted prefix; the heap holds the rest
  // of the input and every submission.
  std::vector<JobSpec> pending_specs_;
  size_t pending_next_ = 0;
  size_t pending_sorted_end_ = 0;
  struct QueuedArrival {
    double time_s;
    size_t key;
  };
  struct QueuedArrivalBefore {
    bool operator()(const QueuedArrival& a, const QueuedArrival& b) const {
      if (a.time_s != b.time_s) {
        return a.time_s < b.time_s;
      }
      return a.key < b.key;
    }
  };
  MinHeap<QueuedArrival, QueuedArrivalBefore> pending_heap_;

  // Where a known job id lives: its order key, and its runtime while live.
  // Holds every materialized or submitted job, and every pending input spec
  // once IndexPendingSpecs ran. Looked up, never iterated.
  struct JobRef {
    size_t key;
    JobRuntime* live;
  };
  mutable std::unordered_map<int, JobRef> job_refs_;
  mutable bool pending_indexed_ = false;

  // A retired runtime's final state, everything Run()'s aggregation and
  // job() read from a completed job. Appended at retirement; Run() sorts
  // them into order-key order before aggregating.
  struct RetiredJob {
    size_t key;
    JobSnapshot snapshot;
  };
  std::vector<RetiredJob> retired_;
  // Fit-stat totals of retired runtimes, folded into job_totals()'s live-job
  // walk (integer sums, so folding an aggregate keeps the totals bitwise).
  ModelFitStats retired_conv_stats_;
  ModelFitStats retired_speed_stats_;
  std::unique_ptr<ThreadPool> pool_;  // per-job parallelism (see threads)
  // Greedy-round counters the Optimus allocator accumulates across rounds;
  // allocator_ captures a pointer to it.
  OptimusAllocRoundStats alloc_stats_;
  std::unique_ptr<Allocator> allocator_;
  // Bumped by every mutating public call (AdvanceTo, StepInterval, Run,
  // SubmitJob, KillJob): the key of the cached what-if baseline.
  uint64_t state_generation_ = 0;
  // What-if admission state (WhatIf): a second allocator instance with
  // scratch round stats, so queries never advance the counters allocator_
  // shares with the metrics registry, and the baseline of the last query,
  // valid while whatif_generation_ == state_generation_.
  OptimusAllocRoundStats whatif_stats_;
  std::unique_ptr<Allocator> whatif_allocator_;
  std::unique_ptr<AdmissionBaseline> whatif_baseline_;
  uint64_t whatif_generation_ = 0;
  // The policy's PolicyTraits::scaling_hysteresis, read once at construction.
  bool scaling_hysteresis_ = true;
  // Network fabric model; null under the flat (exact-compat) model.
  std::unique_ptr<NetworkModel> net_;
  StragglerModel straggler_;
  std::unique_ptr<FaultInjector> faults_;
  InvariantAuditor auditor_;
  double cluster_slow_factor_ = 1.0;
  Rng rng_;
  double now_s_ = 0.0;
  RunMetrics metrics_;
  EventTrace trace_;

  // --- Event engine ---------------------------------------------------------
  EventQueue events_;
  EventKindCounts event_counts_;  // processed events and walked boundaries
  // The round chain: the queued kRound's time (+inf when none is queued: an
  // idle round queues none) and the time of the last one, which an arrival
  // restarting the chain snaps to. The one live kArrival's time (+inf when
  // none is queued).
  double queued_round_s_ = std::numeric_limits<double>::infinity();
  double last_round_s_ = 0.0;
  double queued_arrival_s_ = std::numeric_limits<double>::infinity();
  // The distinct fault-plan edge times, ascending; the first next_edge_ have
  // popped. With the queued round they bound each walk.
  std::vector<double> fault_edges_s_;
  size_t next_edge_ = 0;
  // The jobs whose segment the last RebuildSegments activated, in order-key
  // order; a later eviction, kill or completion only deactivates an entry.
  // Cleared before the round retires completed runtimes.
  std::vector<JobRuntime*> segments_;
  std::vector<WalkEffect> walk_effects_;  // the last walk's, in merge order

  // --- Observability -------------------------------------------------------
  MetricsRegistry registry_;  // empty when config_.obs.enabled is false
  FlightRecorder flight_;     // depth 0 (no-op) when observability is off
  MetricsSeries series_;      // sampled only with obs.per_interval_series
  PhaseProfiler profiler_;    // wall-clock phase accounting (always on)
  int phase_faults_ = 0;
  int phase_schedule_ = 0;
  int phase_advance_ = 0;
  int phase_audit_ = 0;
  int phase_events_ = 0;  // event-kernel dispatch/settle/rebuild (events engine)
  // Speed-surface totals harvested from each scheduling round's surface set.
  int64_t surface_probes_ = 0;
  int64_t surface_evals_ = 0;
  int64_t surface_count_ = 0;
  bool flight_dumped_ = false;  // post-mortem dump emitted once per run
  int running_tasks_ = 0;       // tasks running over the last interval
  mutable JobTotals job_totals_;
  mutable bool job_totals_stale_ = true;
  // The registry metrics the simulator writes itself (null when observability
  // is off); every other metric is a view.
  Counter* intervals_ = nullptr;
  Histogram* jct_hist_ = nullptr;
  Histogram* epochs_hist_ = nullptr;
};

}  // namespace optimus

#endif  // SRC_SIM_SIMULATOR_H_
