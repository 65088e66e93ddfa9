#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/perfmodel/sampler.h"
#include "src/sched/baseline_allocators.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/speed_surface.h"

namespace optimus {

namespace {

// Speed-model initialization (§3.2, §6.1): (p, w) pre-run samples per job and
// the measurement noise of one short run.
constexpr int kPreRunSamples = 5;
constexpr double kSpeedMeasureNoiseSd = 0.02;
// Cost of a periodic save as a fraction of a full checkpoint-restart stall
// (a save is the write half; no restore or relaunch happens).
constexpr double kCheckpointSaveFraction = 0.5;
// Cap on the relaunch backoff, which doubles per eviction past
// FaultConfig::evictions_before_backoff.
constexpr double kBackoffMaxS = 7200.0;

// The spec-only step-time view of a job at (p, w): the configured batch,
// balanced PS load, no placement, healthy workers and the flat network.
StepTimeInputs SpecStepInputs(const JobSpec& spec, int num_ps, int num_workers) {
  return StepProfile::Of(spec).Inputs(num_ps, num_workers);
}

JobSnapshot SnapshotOf(const Job& job, bool killed) {
  JobSnapshot s;
  s.id = job.id();
  s.state = job.state();
  s.killed = killed;
  s.num_ps = job.num_ps();
  s.num_workers = job.num_workers();
  s.num_scalings = job.num_scalings();
  s.arrival_time_s = job.spec().arrival_time_s;
  s.completion_time_s = job.completion_time_s();
  s.jct_s = job.state() == JobState::kCompleted ? job.Jct() : 0.0;
  s.steps_done = job.steps_done();
  s.epochs_done = job.EpochsDone();
  s.checkpoint_steps = job.checkpoint_steps();
  s.last_epoch_loss = job.epoch_losses().empty() ? 0.0 : job.epoch_losses().back();
  s.total_stall_s = job.total_stall_s();
  return s;
}

}  // namespace

const char* SimEngineName(SimEngine engine) {
  switch (engine) {
    case SimEngine::kInterval:
      return "interval";
    case SimEngine::kEvents:
      return "events";
  }
  return "unknown";
}

bool ParseSimEngine(const std::string& name, SimEngine* out) {
  if (name == "interval") {
    *out = SimEngine::kInterval;
    return true;
  }
  if (name == "events") {
    *out = SimEngine::kEvents;
    return true;
  }
  return false;
}

bool SimulatorConfig::Validate(std::vector<std::string>* errors) const {
  std::vector<std::string> local;
  const auto bad = [&](const std::string& field, const std::string& problem) {
    local.push_back(field + ": " + problem);
  };
  const auto require_finite_ge = [&](const std::string& field, double v, double lo) {
    if (!std::isfinite(v) || v < lo) {
      bad(field, "must be a finite value >= " + std::to_string(lo) + " (got " +
                     std::to_string(v) + ")");
    }
  };
  const auto require_prob = [&](const std::string& field, double v) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
      bad(field, "must be a probability in [0, 1] (got " + std::to_string(v) + ")");
    }
  };

  if (std::string unknown; FindPolicy(policy, &unknown) == nullptr) {
    bad("policy", unknown);
  }
  if (!(std::isfinite(interval_s) && interval_s > 0.0)) {
    bad("interval_s", "must be > 0 (got " + std::to_string(interval_s) + ")");
  }
  require_finite_ge("runtime_noise_sd", runtime_noise_sd, 0.0);
  if (conv_samples_per_interval < 1) {
    bad("conv_samples_per_interval",
        "must be >= 1 (got " + std::to_string(conv_samples_per_interval) + ")");
  }
  if (conv_fit_points < 0) {
    bad("conv_fit_points", "must be >= 0 (got " + std::to_string(conv_fit_points) + ")");
  }
  if (!(std::isfinite(young_job_priority_factor) && young_job_priority_factor > 0.0 &&
        young_job_priority_factor <= 1.0)) {
    bad("young_job_priority_factor",
        "must be in (0, 1] (got " + std::to_string(young_job_priority_factor) + ")");
  }
  require_prob("error.convergence_error", error.convergence_error);
  require_prob("error.speed_error", error.speed_error);
  if (threads < 0) {
    bad("threads", "must be >= 0 (0 = OPTIMUS_THREADS; got " +
                       std::to_string(threads) + ")");
  }
  require_finite_ge("chunk_move_s", chunk_move_s, 0.0);
  if (!(std::isfinite(background_share) && background_share >= 0.0 &&
        background_share < 1.0)) {
    bad("background_share",
        "must be in [0, 1) (got " + std::to_string(background_share) + ")");
  }
  require_finite_ge("background_period_s", background_period_s, 0.0);
  if (!(std::isfinite(max_sim_time_s) && max_sim_time_s > 0.0)) {
    bad("max_sim_time_s", "must be > 0 (got " + std::to_string(max_sim_time_s) + ")");
  }
  if (full_audit_period < 1) {
    bad("full_audit_period",
        "must be >= 1 (got " + std::to_string(full_audit_period) + ")");
  }
  if (rack_size < 0) {
    bad("rack_size",
        "must be >= 0 (0 = one rack; got " + std::to_string(rack_size) + ")");
  }
  if (!(std::isfinite(net.nic_bps) && net.nic_bps > 0.0)) {
    bad("net.nic_bps", "must be > 0 (got " + std::to_string(net.nic_bps) + ")");
  }
  if (!(std::isfinite(net.oversubscription) && net.oversubscription >= 1.0)) {
    bad("net.oversubscription",
        "must be >= 1 (got " + std::to_string(net.oversubscription) + ")");
  }
  if (obs.flight_recorder_depth < 0) {
    bad("obs.flight_recorder_depth",
        "must be >= 0 (got " + std::to_string(obs.flight_recorder_depth) + ")");
  }
  require_prob("straggler.injection_prob_per_interval",
               straggler.injection_prob_per_interval);
  require_prob("fault.task_failure_prob", fault.task_failure_prob);
  require_finite_ge("fault.checkpoint_period_s", fault.checkpoint_period_s, 0.0);
  if (fault.evictions_before_backoff < 1) {
    bad("fault.evictions_before_backoff",
        "must be >= 1 (got " + std::to_string(fault.evictions_before_backoff) + ")");
  }
  if (!(std::isfinite(fault.backoff_base_s) && fault.backoff_base_s >= 0.0 &&
        fault.backoff_base_s <= kBackoffMaxS)) {
    bad("fault.backoff_base_s", "must be in [0, " + std::to_string(kBackoffMaxS) +
                                    "] (got " + std::to_string(fault.backoff_base_s) + ")");
  }
  for (size_t i = 0; i < fault.plan.outages.size(); ++i) {
    const ServerOutage& outage = fault.plan.outages[i];
    if (!(outage.recover_s > outage.start_s)) {
      bad("fault.plan.outages[" + std::to_string(i) + "]",
          "recover_s must be > start_s");
    }
  }
  for (size_t i = 0; i < fault.plan.slowdowns.size(); ++i) {
    const SlowdownBurst& burst = fault.plan.slowdowns[i];
    if (!(burst.factor > 0.0 && burst.factor <= 1.0)) {
      bad("fault.plan.slowdowns[" + std::to_string(i) + "]",
          "factor must be in (0, 1]");
    }
    if (!(burst.end_s > burst.start_s)) {
      bad("fault.plan.slowdowns[" + std::to_string(i) + "]",
          "end_s must be > start_s");
    }
  }

  const bool ok = local.empty();
  if (errors != nullptr) {
    errors->insert(errors->end(), local.begin(), local.end());
  }
  return ok;
}

const SimulatorConfig& SimulatorConfig::CheckValid() const {
  std::vector<std::string> errors;
  if (!Validate(&errors)) {
    std::string joined;
    for (const std::string& e : errors) {
      joined += "\n  " + e;
    }
    OPTIMUS_LOG(Fatal) << "invalid SimulatorConfig:" << joined;
  }
  return *this;
}

Simulator::Simulator(SimulatorConfig config, std::vector<Server> servers,
                     std::vector<JobSpec> specs)
    : config_(config.CheckValid()),
      servers_(std::move(servers)),
      straggler_(config.straggler),
      rng_(config.seed),
      flight_(config.obs.enabled ? config.obs.flight_recorder_depth : 0) {
  OPTIMUS_CHECK(!servers_.empty());
  metrics_.total_jobs = static_cast<int>(specs.size());
  pending_specs_ = std::move(specs);
  // The cursor serves the input's arrival-sorted prefix (all of a generated
  // trace); every spec from the first one out of order on waits in the heap.
  while (pending_sorted_end_ < pending_specs_.size() &&
         (pending_sorted_end_ == 0 ||
          pending_specs_[pending_sorted_end_].arrival_time_s >=
              pending_specs_[pending_sorted_end_ - 1].arrival_time_s)) {
    ++pending_sorted_end_;
  }
  for (size_t key = pending_sorted_end_; key < pending_specs_.size(); ++key) {
    pending_heap_.push({pending_specs_[key].arrival_time_s, key});
  }
  pool_ = std::make_unique<ThreadPool>(config_.threads > 0 ? config_.threads
                                                          : DefaultThreadCount());
  // CheckValid has already rejected an unknown policy name.
  const SchedulerPolicyInfo& policy = *FindPolicy(config_.policy);
  allocator_ = policy.create(&alloc_stats_);
  whatif_allocator_ = policy.create(&whatif_stats_);
  scaling_hysteresis_ = policy.traits.scaling_hysteresis;
  // Null under the flat model: every comm-model call then falls back to the
  // Eqn-2 constant and the run is bitwise identical to the pre-fabric code.
  net_ = NetworkModel::Create(config_.net, static_cast<int>(servers_.size()),
                              config_.rack_size);
  faults_ = std::make_unique<FaultInjector>(config_.fault,
                                            static_cast<int>(servers_.size()));
  auditor_.SetClusterSize(servers_.size());
  if (config_.trace_hash_only) {
    trace_.set_hash_only(true);
  }
  // Rough per-run event budget: a handful of lifecycle events per job.
  trace_.Reserve(pending_specs_.size() * 8 + 64);
  SetupObservability();
  if (config_.engine == SimEngine::kEvents) {
    SeedEvents();
  }
}

Simulator::JobRuntime* Simulator::MaterializeSpec(JobSpec pending, size_t key) {
  auto jr = std::make_unique<JobRuntime>(std::move(pending), key, rng_);
  const JobSpec& spec = jr->job.spec();
  jr->error_sign = jr->rng.Bernoulli(0.5) ? 1 : -1;
  auto blocks = param_blocks_.find(spec.model);
  if (blocks == param_blocks_.end()) {
    blocks = param_blocks_.emplace(spec.model, PaaLoadTable(GenerateParamBlocks(*spec.model)))
                 .first;
  }
  jr->blocks = &blocks->second;
  jr->data = std::make_unique<DataServing>(
      EstimateDatasetBytes(*spec.model, spec.dataset_scale));
  jr->true_total_epochs = static_cast<double>(
      jr->curve.EpochsToConverge(spec.convergence_delta, spec.patience));
  const auto [ref, inserted] = job_refs_.try_emplace(spec.id, JobRef{key, nullptr});
  OPTIMUS_CHECK(inserted || ref->second.key == key) << "duplicate job id " << spec.id;
  ref->second.live = jr.get();
  ++materialized_count_;
  // Arrivals come in order-key order unless the input was unsorted or a
  // submission arrives before a later input spec.
  auto at = jobs_.end();
  if (!jobs_.empty() && jobs_.back()->key > key) {
    at = std::upper_bound(jobs_.begin(), jobs_.end(), key,
                          [](size_t k, const auto& other) { return k < other->key; });
  }
  return jobs_.insert(at, std::move(jr))->get();
}

std::optional<size_t> Simulator::PendingHead() {
  while (pending_next_ < pending_sorted_end_ &&
         pending_specs_[pending_next_].model == nullptr) {
    ++pending_next_;
  }
  while (!pending_heap_.empty() &&
         pending_specs_[pending_heap_.top().key].model == nullptr) {
    pending_heap_.pop();
  }
  std::optional<size_t> head;
  if (pending_next_ < pending_sorted_end_) {
    head = pending_next_;
  }
  if (!pending_heap_.empty() &&
      (!head || QueuedArrivalBefore{}(pending_heap_.top(),
                                      {pending_specs_[*head].arrival_time_s, *head}))) {
    head = pending_heap_.top().key;
  }
  return head;
}

JobSpec Simulator::TakePending(size_t key) {
  JobSpec spec = std::move(pending_specs_[key]);
  pending_specs_[key] = JobSpec{};  // consumed: releases the slot's heap state
  return spec;
}

void Simulator::IndexPendingSpecs() const {
  if (pending_indexed_) {
    return;
  }
  pending_indexed_ = true;
  for (size_t key = 0; key < pending_specs_.size(); ++key) {
    const JobSpec& spec = pending_specs_[key];
    if (spec.model == nullptr) {
      continue;
    }
    const auto [ref, inserted] = job_refs_.try_emplace(spec.id, JobRef{key, nullptr});
    OPTIMUS_CHECK(inserted || ref->second.key == key) << "duplicate job id " << spec.id;
  }
}

void Simulator::RetireCompleted() {
  runtime_visits_ += static_cast<int64_t>(jobs_.size());
  size_t kept = 0;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    JobRuntime* jr = jobs_[i].get();
    if (jr->job.state() != JobState::kCompleted) {
      if (kept != i) {
        jobs_[kept] = std::move(jobs_[i]);
      }
      ++kept;
      continue;
    }
    retired_.push_back({jr->key, SnapshotOf(jr->job, jr->killed)});
    if (jr->conv != nullptr) {
      retired_conv_stats_ += jr->conv->fit_stats();
    }
    if (jr->speed != nullptr) {
      retired_speed_stats_ += jr->speed->fit_stats();
    }
    auditor_.NoteRetired(jr->job.id());
    job_refs_.at(jr->job.id()).live = nullptr;
    jobs_[i].reset();
  }
  jobs_.resize(kept);
}

void Simulator::SetupObservability() {
  // The auditor records its violations into the recorder (no-op at depth 0),
  // so the post-mortem dump interleaves them with the decisions around them.
  auditor_.set_flight_recorder(&flight_);
  if (config_.obs.enabled) {
    auto view = [this](const char* name, const char* help, auto read) {
      registry_.AddCounterView(name, help,
                               [read] { return static_cast<double>(read()); });
    };
    intervals_ = registry_.AddCounter("optimus_intervals_total",
                                      "Scheduling intervals simulated.");
    view("optimus_jobs_submitted_total", "Jobs that have arrived.",
         [this] { return job_totals().submitted; });
    view("optimus_jobs_completed_total", "Jobs converged and completed.",
         [this] { return metrics_.completed_jobs; });
    view("optimus_jobs_killed_total", "Jobs cancelled by an online kill request.",
         [this] { return metrics_.jobs_killed; });
    view("optimus_scalings_total", "Checkpoint-restart resource adjustments applied.",
         [this] { return metrics_.total_scalings; });
    view("optimus_straggler_replacements_total",
         "Straggling workers detected and replaced.",
         [this] { return straggler_.replacements(); });
    view("optimus_checkpoints_total",
         "Periodic durable checkpoints taken (fault plan).",
         [this] { return metrics_.checkpoints_taken; });
    view("optimus_job_evictions_total",
         "Jobs evicted after losing tasks to a down server.",
         [this] { return metrics_.job_evictions; });
    view("optimus_task_failures_total",
         "Container deaths restored from checkpoint in place.",
         [this] { return metrics_.task_failures; });
    view("optimus_server_crashes_total", "Scripted server crashes.",
         [this] { return metrics_.server_crashes; });
    view("optimus_server_recoveries_total", "Crashed servers brought back up.",
         [this] { return metrics_.server_recoveries; });
    view("optimus_backoff_deferrals_total",
         "Relaunch-backoff deferrals after repeated evictions.",
         [this] { return metrics_.backoff_deferrals; });
    view("optimus_rolled_back_steps_total",
         "Training steps lost to checkpoint rollbacks.",
         [this] { return metrics_.rolled_back_steps; });
    view("optimus_audit_checks_total", "Invariant-auditor passes.",
         [this] { return metrics_.audit_checks; });
    view("optimus_audit_violations_total", "Invariant violations reported.",
         [this] { return metrics_.audit_violations; });
    view("optimus_speed_probes_total", "Speed-surface probes across scheduling rounds.",
         [this] { return surface_probes_; });
    view("optimus_speed_evals_total",
         "Underlying speed-function evaluations (probes minus memo hits).",
         [this] { return surface_evals_; });
    view("optimus_speed_surfaces_total", "Distinct speed surfaces built across rounds.",
         [this] { return surface_count_; });
    view("optimus_alloc_pops_total", "Greedy-heap candidates popped (Optimus).",
         [this] { return alloc_stats_.pops; });
    view("optimus_alloc_grants_total", "Tasks granted by the greedy allocator.",
         [this] { return alloc_stats_.grants; });
    view("optimus_alloc_unfittable_drops_total",
         "Heap candidates dropped because their task kind no longer fits.",
         [this] { return alloc_stats_.unfittable_drops; });
    view("optimus_conv_fits_total", "Convergence-model solve attempts.",
         [this] { return job_totals().conv.fits; });
    view("optimus_conv_fit_cache_hits_total",
         "Convergence fits answered by the dirty-flag cache.",
         [this] { return job_totals().conv.fit_cache_hits; });
    view("optimus_conv_nnls_iterations_total",
         "NNLS iterations spent in convergence fits.",
         [this] { return job_totals().conv.nnls_iterations; });
    view("optimus_speedmodel_fits_total", "Speed-model solve attempts.",
         [this] { return job_totals().speed.fits; });
    view("optimus_speedmodel_fit_cache_hits_total",
         "Speed-model fits answered by the dirty-flag cache.",
         [this] { return job_totals().speed.fit_cache_hits; });
    view("optimus_speedmodel_nnls_iterations_total",
         "NNLS iterations spent in speed-model fits.",
         [this] { return job_totals().speed.nnls_iterations; });
    view("optimus_events_processed_total",
         "Discrete events handled by the event kernel "
         "(stale-dropped entries excluded).",
         [this] { return event_counts_.total(); });
    // One arrival event is handled per arrival instant, however many jobs
    // arrive at it, so optimus_events_arrival_total counts arrival instants.
    for (int k = 0; k < kNumSimEventKinds; ++k) {
      const std::string kind = SimEventKindName(static_cast<SimEventKind>(k));
      registry_.AddCounterView(
          "optimus_events_" + kind + "_total",
          "Event-kernel events of kind " + kind + " handled.", [this, k] {
            return static_cast<double>(event_counts_.counts[static_cast<size_t>(k)]);
          });
    }
    registry_.AddGaugeView("optimus_sim_time_seconds", "Simulated time.",
                           [this] { return now_s_; });
    registry_.AddGaugeView("optimus_running_tasks",
                           "Tasks (workers + PS) running last interval.",
                           [this] { return static_cast<double>(running_tasks_); });
    jct_hist_ = registry_.AddHistogram(
        "optimus_jct_seconds", "Job completion times (arrival to convergence).",
        {1800.0, 3600.0, 7200.0, 14400.0, 28800.0, 57600.0, 115200.0, 230400.0});
    epochs_hist_ = registry_.AddHistogram(
        "optimus_completed_epochs", "Epochs at convergence for completed jobs.",
        {5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0});
    // Network-fabric metrics register only when a non-flat model is live:
    // flat runs keep the historical catalog byte-identical (the committed
    // metrics.prom golden), and the fabric values are deterministic
    // (placement-driven serial solves), so within a fabric config the
    // catalog remains a stable prefix across threads and engines.
    if (net_ != nullptr) {
      const NetworkModel* net = net_.get();
      view("optimus_net_solves_total", "Network fair-share solves (one per round).",
           [net] { return net->stats().solves; });
      view("optimus_net_flows_total",
           "Flows registered with the network model, cumulative.",
           [net] { return net->stats().flows; });
      view("optimus_net_contended_flows_total",
           "Flows held below their isolated rate by link sharing.",
           [net] { return net->stats().contended_flows; });
      registry_.AddGaugeView("optimus_net_max_link_utilization",
                             "Most utilized fabric link after the last solve (0-1).",
                             [net] { return net->stats().max_link_utilization; });
      registry_.AddGaugeView(
          "optimus_net_mean_link_utilization",
          "Mean utilization over all fabric links after the last solve (0-1).",
          [net] { return net->stats().mean_link_utilization; });
    }
    // Profiling gauges (optimus_wall_*_seconds) register last so the
    // deterministic catalog is a stable prefix of the export.
    profiler_.AttachRegistry(&registry_, "optimus_wall_");
  }
  phase_faults_ = profiler_.RegisterPhase("faults");
  phase_schedule_ = profiler_.RegisterPhase("schedule");
  phase_advance_ = profiler_.RegisterPhase("advance");
  phase_audit_ = profiler_.RegisterPhase("audit");
  phase_events_ = profiler_.RegisterPhase("events");
}

void Simulator::SampleObservability() {
  if (!config_.obs.enabled) {
    return;
  }
  intervals_->Add();
  if (config_.obs.per_interval_series) {
    series_.Sample(now_s_, registry_);
  }
}

void Simulator::SyncRunMetrics() {
  metrics_.wall_faults_s = profiler_.seconds(phase_faults_);
  metrics_.wall_schedule_s = profiler_.seconds(phase_schedule_);
  metrics_.wall_advance_s = profiler_.seconds(phase_advance_);
  metrics_.wall_audit_s = profiler_.seconds(phase_audit_);
  metrics_.wall_events_s = profiler_.seconds(phase_events_);
  metrics_.events_processed = event_counts_.total();
}

const Simulator::JobTotals& Simulator::job_totals() const {
  if (!job_totals_stale_) {
    return job_totals_;
  }
  // Integer sums, so the order matters only for consistency, not value.
  JobTotals t;
  t.submitted = static_cast<int64_t>(retired_.size() + jobs_.size());
  t.conv = retired_conv_stats_;
  t.speed = retired_speed_stats_;
  for (const auto& jr : Live()) {
    if (jr->conv != nullptr) {
      t.conv += jr->conv->fit_stats();
    }
    if (jr->speed != nullptr) {
      t.speed += jr->speed->fit_stats();
    }
  }
  job_totals_ = t;
  job_totals_stale_ = false;
  return job_totals_;
}

JobSnapshot Simulator::job(int id) const {
  IndexPendingSpecs();
  const auto it = job_refs_.find(id);
  if (it == job_refs_.end()) {
    OPTIMUS_LOG(Fatal) << "unknown job id " << id;
  }
  const JobRef& ref = it->second;
  if (ref.live != nullptr) {
    return SnapshotOf(ref.live->job, ref.live->killed);
  }
  const JobSpec& pending = pending_specs_[ref.key];
  if (pending.model != nullptr) {
    JobSnapshot s;
    s.id = pending.id;
    s.arrival_time_s = pending.arrival_time_s;
    return s;
  }
  const auto retired = std::find_if(retired_.begin(), retired_.end(),
                                    [&](const RetiredJob& r) { return r.key == ref.key; });
  OPTIMUS_CHECK(retired != retired_.end()) << "job " << id << " has no record";
  return retired->snapshot;
}

void Simulator::InitSpeedModel(JobRuntime* jr) {
  const JobSpec& spec = jr->job.spec();
  ConvergenceModelOptions conv_options;
  if (config_.conv_fit_points > 0) {
    conv_options.max_fit_points = config_.conv_fit_points;
  }
  jr->conv = std::make_unique<ConvergenceModel>(conv_options);
  jr->speed =
      std::make_unique<SpeedModel>(spec.mode, spec.GlobalBatch());
  if (config_.oracle_estimates) {
    return;  // oracle mode never consults the fitted models
  }
  // Pre-run the job for a few steps on a data sample at several (p, w)
  // configurations (§3.2 "Model fitting"). The measured speeds come from the
  // ground-truth model under balanced PS load and unknown placement.
  Rng* noise = &jr->rng;
  // All-reduce jobs run no PS tasks: their speed lives on the single p == 0
  // row of the comm model, which the fitted SpeedModel stores under p = 1
  // (its Eqn-3/4 grid starts at one PS). Pre-run samples therefore pin p.
  const bool allreduce = spec.comm == CommMode::kAllReduce;
  SpeedOracle oracle = [this, spec, noise, allreduce](int p, int w) {
    return TrainingSpeed(SpecStepInputs(spec, allreduce ? 0 : p, w), config_.comm) *
           noise->LogNormalFactor(kSpeedMeasureNoiseSd);
  };
  Rng sampler_rng = jr->rng.Split(77);
  InitializeSpeedModel(jr->speed.get(), oracle, kPreRunSamples,
                       allreduce ? 1 : spec.max_ps, spec.max_workers,
                       &sampler_rng);
}

void Simulator::ActivateArrivals() {
  // Build this instant's arrivals first, then initialize their speed models
  // — possibly in parallel. Initialization only touches per-job state (the
  // job's own RNG streams included), so the parallel path is bitwise
  // identical to the serial one; trace events are recorded afterwards, in
  // order-key order, to keep the event log deterministic too.
  std::vector<JobRuntime*> arriving;
  for (std::optional<size_t> key = PendingHead();
       key && pending_specs_[*key].arrival_time_s <= now_s_; key = PendingHead()) {
    arriving.push_back(MaterializeSpec(TakePending(*key), *key));
  }
  if (arriving.empty()) {
    return;
  }
  std::sort(arriving.begin(), arriving.end(),
            [](const JobRuntime* a, const JobRuntime* b) { return a->key < b->key; });
  pool_->ParallelFor(static_cast<int64_t>(arriving.size()),
                     [&](int64_t i) { InitSpeedModel(arriving[i]); });
  for (const JobRuntime* jr : arriving) {
    Emit(now_s_, SimEventType::kArrival, jr->job.id(), 0, 0, 0.0,
         jr->job.spec().model->name);
  }
  job_totals_stale_ = true;
}

bool Simulator::AnyIncompleteLive() const {
  for (const auto& jr : Live()) {
    if (jr->job.state() != JobState::kCompleted) {
      return true;
    }
  }
  return false;
}

double Simulator::NextArrival() {
  const std::optional<size_t> key = PendingHead();
  return key ? pending_specs_[*key].arrival_time_s
             : std::numeric_limits<double>::infinity();
}

double Simulator::ErrorFactor(const JobRuntime& jr, double error_magnitude) const {
  if (error_magnitude <= 0.0) {
    return 1.0;
  }
  const double progress =
      jr.true_total_epochs > 0.0
          ? std::clamp(jr.job.EpochsDone() / jr.true_total_epochs, 0.0, 1.0)
          : 0.0;
  return 1.0 + jr.error_sign * error_magnitude * (1.0 - progress);
}

double Simulator::EstimateRemainingEpochs(const JobRuntime& jr) const {
  if (config_.oracle_estimates) {
    const double remaining = std::max(0.0, jr.true_total_epochs - jr.job.EpochsDone());
    return std::max(0.0, remaining * ErrorFactor(jr, config_.error.convergence_error));
  }
  return jr.conv->PredictRemainingEpochs(jr.job.steps_done(),
                                        jr.job.spec().convergence_delta,
                                        jr.job.spec().patience,
                                        jr.job.spec().StepsPerEpoch());
}

SchedJob Simulator::MakeSchedJob(JobRuntime* jr) const {
  const JobSpec& spec = jr->job.spec();
  SchedJob sj = SchedJobHeader(spec);
  const bool allreduce = spec.comm == CommMode::kAllReduce;
  sj.remaining_epochs = EstimateRemainingEpochs(*jr);

  const double spe = static_cast<double>(spec.StepsPerEpoch());
  const StepProfile profile = StepProfile::Of(spec);
  if (config_.oracle_estimates) {
    // Speed-estimation error distorts the *slope* of the estimated speed
    // function: the estimate is exact in the middle of the configuration
    // range and off by up to +/-e at the extremes. A uniform scale factor
    // would cancel out of every allocation decision; a slope error misplaces
    // the speed knee and causes genuine over-/under-allocation, which is what
    // Fig 15 measures. Without injected error, jobs sharing one profile have
    // equal estimates and share one memoized surface within a round.
    const double err = ErrorFactor(*jr, config_.error.speed_error) - 1.0;
    const double span = static_cast<double>(sj.max_ps + sj.max_workers);
    sj.speed = SpeedEstimate::Oracle(profile, config_.comm, spe, err, span);
  } else if (jr->speed != nullptr && config_.naive_linear_speed) {
    // Naive assumption: perfect linear scaling in workers from the single
    // (1, 1) measurement, parameter servers free.
    sj.speed = SpeedEstimate::NaiveLinear(*jr->speed, spe);
  } else if (jr->speed != nullptr) {
    // Fitted all-reduce estimates live on the model's p = 1 row (the grid the
    // pre-run samples and interval measurements were pinned to).
    sj.speed = SpeedEstimate::Fitted(*jr->speed, spe, /*pin_ps=*/allreduce);
  }

  // Batch-adaptivity surface (sync jobs only): the admissible range, the
  // statistical-efficiency parameter, and batch scaling of the estimate by
  // the analytic step-time ratio T(M0)/T(b) — a pure function of the model
  // profile, so it adds no RNG draws and is identical across threads.
  // Policies that ignore the batch dimension never call it.
  if (spec.mode == TrainingMode::kSync) {
    sj.batch_ref = spec.GlobalBatch();
    sj.batch_min = spec.BatchMin();
    sj.batch_max = spec.BatchMax();
    sj.grad_noise_scale = spec.GradNoiseScale();
    if (sj.batch_min > 0 && sj.batch_max > sj.batch_min) {
      sj.speed = sj.speed.WithBatchScaling(profile, config_.comm);
    }
  }
  // Sensitivity profile for resource-sensitive policies.
  sj.cpu_sensitivity = spec.CpuSensitivity();
  sj.mem_sensitivity = spec.MemSensitivity();

  const double progress =
      jr->true_total_epochs > 0.0 ? jr->job.EpochsDone() / jr->true_total_epochs : 0.0;
  if (progress < kYoungJobProgressCutoff) {
    sj.priority_factor = config_.young_job_priority_factor;
  }
  return sj;
}

void Simulator::RecomputeLoad(JobRuntime* jr) {
  const int p = jr->job.num_ps();
  if (p <= 0) {
    jr->load_valid = false;
    return;
  }
  if (config_.use_paa) {
    // Contention-aware tie-break: with a live network model, PS indices are
    // weighted by their server's link headroom (last solve) so PAA's
    // least-loaded choice drifts off congested links. PS index k maps to a
    // server via the canonical placement order (ForEachUsed ascending server
    // ids, consecutive indices per server). Null weights (flat model, or a
    // placement not yet applied) keep the unweighted, bit-identical path.
    std::vector<double> weights;
    if (net_ != nullptr && !jr->job.placement().empty()) {
      weights.reserve(static_cast<size_t>(p));
      jr->job.placement().ForEachUsed([&](size_t s, int /*w_k*/, int p_k) {
        for (int k = 0; k < p_k; ++k) {
          weights.push_back(net_->ServerWeight(static_cast<int>(s)));
        }
      });
    }
    const std::vector<double>* w =
        static_cast<int>(weights.size()) == p ? &weights : nullptr;
    jr->load = jr->blocks->Load(p, w);
  } else {
    Rng assign_rng = jr->rng.Split(static_cast<uint64_t>(p) + 7);
    jr->load =
        ComputeLoadMetrics(MxnetAssigner().Assign(jr->blocks->blocks(), p, &assign_rng));
  }
  jr->load_valid = true;
}

StepTimeInputs Simulator::LiveStepInputs(const JobRuntime& jr) {
  const Job& job = jr.job;
  const JobSpec& spec = job.spec();
  StepTimeInputs in = SpecStepInputs(spec, job.num_ps(), job.num_workers());
  const int batch_override =
      spec.mode == TrainingMode::kSync ? job.batch_override() : 0;
  if (batch_override > 0) {
    in.global_batch = batch_override;
  }
  in.load = jr.load;
  in.load_valid = jr.load_valid;
  in.placement = &job.placement();  // borrowed: no vector copies
  in.slowest_worker_factor = job.slowest_worker_factor();
  in.net_bw_bps = jr.net_bw_bps;  // 0 under the flat model (Eqn-2 constant)
  return in;
}

double Simulator::TrueSpeed(const JobRuntime& jr) const {
  const JobSpec& spec = jr.job.spec();
  const bool allreduce = spec.comm == CommMode::kAllReduce;
  if (jr.job.num_workers() <= 0 || (!allreduce && jr.job.num_ps() <= 0)) {
    return 0.0;
  }
  // A scheduler-chosen batch override (batch-adaptive policies, sync jobs)
  // changes the physical step time AND discounts progress by the statistical
  // efficiency of the larger batch. When unset — every pre-existing policy —
  // this path is bitwise identical to the historical one.
  double speed = TrainingSpeed(LiveStepInputs(jr), config_.comm);
  const int batch_override =
      spec.mode == TrainingMode::kSync ? jr.job.batch_override() : 0;
  if (batch_override > 0) {
    speed *= BatchProgressFactor(spec.GradNoiseScale(), spec.GlobalBatch(),
                                 batch_override);
  }
  return speed;
}

bool Simulator::RefreshNetwork() {
  if (net_ == nullptr) {
    return false;  // flat model: the Eqn-2 constant, nothing to solve
  }
  // Serial by construction: runs after scheduling (and after fault-edge
  // evictions on the event engine), never inside a parallel phase, and the
  // solve itself is a pure function of the job-ordered placements — so the
  // resolved bandwidths are bitwise identical across threads.
  net_->BeginRound();
  for (const auto& jr : Live()) {
    if (jr->job.state() != JobState::kRunning || jr->job.placement().empty()) {
      continue;
    }
    net_->AddJob(jr->job.id(), jr->job.placement());
  }
  net_->Solve();
  bool changed = false;
  for (const auto& jr : Live()) {
    double bw = 0.0;
    if (jr->job.state() == JobState::kRunning && !jr->job.placement().empty()) {
      bw = net_->BandwidthFor(jr->job.id());
    }
    if (bw != jr->net_bw_bps) {
      jr->net_bw_bps = bw;
      changed = true;
    }
  }
  return changed;
}

double Simulator::BackgroundShare(double t) const {
  if (config_.background_share <= 0.0) {
    return 0.0;
  }
  if (config_.background_period_s <= 0.0) {
    return config_.background_share;
  }
  constexpr double kTwoPi = 6.283185307179586;
  return config_.background_share *
         (0.5 + 0.5 * std::sin(kTwoPi * t / config_.background_period_s));
}

void Simulator::EvictJob(JobRuntime* jr, const std::string& reason) {
  Job& job = jr->job;
  const double lost = job.RollbackToCheckpoint();
  metrics_.rolled_back_steps += lost;
  job.AddStall(CheckpointStallSeconds(*job.spec().model));
  job.SetAllocation(0, 0, {});
  job.set_state(job.steps_done() > 0 ? JobState::kPaused : JobState::kPending);
  jr->load_valid = false;
  // Event engine: the job stops training immediately. No-op under the
  // interval engine.
  EndSegment(jr);
  auditor_.NoteRollback(job.id());
  auditor_.ClearPlacement(job.id());
  ++jr->consecutive_evictions;
  const FaultConfig& fc = config_.fault;
  if (jr->consecutive_evictions >= fc.evictions_before_backoff &&
      fc.backoff_base_s > 0.0) {
    const int extra = jr->consecutive_evictions - fc.evictions_before_backoff;
    const double backoff =
        std::min(kBackoffMaxS, fc.backoff_base_s * std::pow(2.0, extra));
    jr->backoff_until_s = now_s_ + backoff;
    ++metrics_.backoff_deferrals;
  }
  Emit(now_s_, SimEventType::kEvicted, job.id(), 0, 0, 0.0, reason);
}

void Simulator::CompleteJob(JobRuntime* jr, int64_t epochs) {
  const Job& job = jr->job;
  auditor_.ClearPlacement(job.id());
  Emit(job.completion_time_s(), SimEventType::kCompleted, job.id(), job.num_ps(),
       job.num_workers(), static_cast<double>(epochs));
}

void Simulator::Emit(double time_s, SimEventType type, int job_id, int num_ps,
                     int num_workers, double value, std::string text) {
  switch (type) {
    case SimEventType::kCompleted:
      ++metrics_.completed_jobs;
      if (jct_hist_ != nullptr) {
        jct_hist_->Record(job_refs_.at(job_id).live->job.Jct());
        epochs_hist_->Record(value);
      }
      break;
    case SimEventType::kKilled:
      // A completion for the accounting invariants (see KillJob), but the
      // job did not converge: no JCT.
      ++metrics_.completed_jobs;
      ++metrics_.jobs_killed;
      break;
    case SimEventType::kServerCrash:
      ++metrics_.server_crashes;
      break;
    case SimEventType::kServerRecovered:
      ++metrics_.server_recoveries;
      break;
    case SimEventType::kTaskFailed:
      ++metrics_.task_failures;
      break;
    case SimEventType::kEvicted:
      ++metrics_.job_evictions;
      break;
    default:
      break;
  }
  const SimEventTypeInfo& info = EventTypeInfo(type);
  if (info.in_flight && flight_.enabled()) {
    flight_.Record(time_s, type, job_id, num_ps, num_workers, value, text);
  }
  if (info.in_trace) {
    trace_.Record(time_s, type, job_id, num_ps, num_workers,
                  EventDetail(info.detail, value, std::move(text)));
  }
}

bool Simulator::ApplyServerEdges(bool* slow_changed) {
  const FaultInjector::IntervalFaults faults = faults_->Advance(now_s_);
  if (!faults.recovered.empty() || !faults.crashed.empty()) {
    placeable_cap_valid_ = false;  // availability changed
    placement_state_.Invalidate();
  }
  *slow_changed = faults.slow_factor != cluster_slow_factor_;
  if (*slow_changed) {
    cluster_slow_factor_ = faults.slow_factor;
    Emit(now_s_, SimEventType::kSlowdown, kClusterEventJobId, 0, 0,
         cluster_slow_factor_);
  }
  for (int sid : faults.recovered) {
    servers_[static_cast<size_t>(sid)].SetAvailable(true);
    Emit(now_s_, SimEventType::kServerRecovered, kClusterEventJobId, 0, 0, sid);
  }
  for (int sid : faults.crashed) {
    servers_[static_cast<size_t>(sid)].SetAvailable(false);
    Emit(now_s_, SimEventType::kServerCrash, kClusterEventJobId, 0, 0, sid);
  }

  // Evict every job with a task on a currently-down server (not just the
  // newly crashed ones: an arrival placed while a server flapped must still
  // be caught). The next scheduling round reallocates survivors onto the
  // remaining capacity.
  bool evicted_any = false;
  if (faults_->servers_down() > 0) {
    for (const auto& jr : Live()) {
      if (jr->job.state() == JobState::kCompleted || jr->job.placement().empty()) {
        continue;
      }
      bool hit = false;
      std::string detail;
      // Visit only the servers this job occupies (ascending, same order as
      // the dense scan) — O(tasks) instead of O(servers) per job.
      jr->job.placement().ForEachUsed([&](size_t s, int w_k, int p_k) {
        if (hit || (w_k <= 0 && p_k <= 0)) {
          return;
        }
        if (!servers_[s].available()) {
          hit = true;
          detail = "server=" + std::to_string(servers_[s].id());
        }
      });
      if (hit) {
        // Keep the progress made up to the crash instant for jobs whose
        // checkpoint is fresher than their segment anchor (event engine).
        SettleJob(jr.get(), now_s_);
        EvictJob(jr.get(), detail);
        evicted_any = true;
      }
    }
  }
  return evicted_any;
}

void Simulator::ApplyFaults() {
  const FaultConfig& fc = config_.fault;

  // Periodic durable checkpoints happen first, so a crash in this same call
  // rolls back to a checkpoint at most checkpoint_period_s old.
  if (fc.checkpoint_period_s > 0.0) {
    for (const auto& jr : Live()) {
      if (jr->job.state() != JobState::kRunning) {
        continue;
      }
      if (now_s_ - jr->last_checkpoint_time_s >= fc.checkpoint_period_s) {
        jr->job.TakeCheckpoint();
        jr->last_checkpoint_time_s = now_s_;
        jr->job.AddStall(
            kCheckpointSaveFraction * CheckpointStallSeconds(*jr->job.spec().model));
        ++metrics_.checkpoints_taken;
        Emit(now_s_, SimEventType::kCheckpoint, jr->job.id(), jr->job.num_ps(),
             jr->job.num_workers(), 0.0, "periodic");
      }
    }
  }

  bool slow_changed = false;
  ApplyServerEdges(&slow_changed);

  // Unscripted container deaths: the job restores from its last checkpoint
  // in place (placement survives; only un-checkpointed progress is lost).
  if (fc.task_failure_prob > 0.0) {
    for (const auto& jr : Live()) {
      if (jr->job.state() != JobState::kRunning) {
        continue;
      }
      const int tasks = jr->job.num_workers() + jr->job.num_ps();
      const double p = faults_->JobFailureProbability(tasks);
      if (p > 0.0 && jr->fault_rng.Bernoulli(p)) {
        const double lost = jr->job.RollbackToCheckpoint();
        metrics_.rolled_back_steps += lost;
        jr->job.AddStall(CheckpointStallSeconds(*jr->job.spec().model));
        auditor_.NoteRollback(jr->job.id());
        Emit(now_s_, SimEventType::kTaskFailed, jr->job.id(), jr->job.num_ps(),
             jr->job.num_workers());
      }
    }
  }
}

void Simulator::RunAudit() {
  std::vector<InvariantAuditor::JobView> views;
  InvariantAuditor::Counts counts;
  views.reserve(jobs_.size());
  for (const auto& jr : Live()) {
    const Job& job = jr->job;
    views.push_back({job.id(), job.state(), job.steps_done(), job.num_ps(),
                     job.num_workers(), job.spec().ps_demand,
                     job.spec().worker_demand, &job.placement(),
                     job.spec().comm});
  }
  // Retired jobs arrived and completed; they enter the accounting identities
  // through counts.retired instead of a view.
  counts.submitted = static_cast<int>(retired_.size() + jobs_.size());
  counts.completed_metric = metrics_.completed_jobs;
  counts.retired = static_cast<int>(retired_.size());
  const double check_time = now_s_ + config_.interval_s;
  // Most intervals run the O(changed) incremental check; every
  // full_audit_period-th check re-derives everything from the views and
  // cross-checks the tracker against them, so incremental-state drift cannot
  // go unnoticed.
  const bool full = config_.full_audit_period <= 1 ||
                    auditor_.checks_run() % config_.full_audit_period == 0;
  if (full) {
    auditor_.Check(check_time, servers_, views, counts);
    auditor_.CheckTrackerAgainstViews(check_time, views);
  } else {
    auditor_.CheckIncremental(check_time, servers_, views, counts);
  }
  metrics_.audit_checks = auditor_.checks_run();
  metrics_.audit_violations = static_cast<int64_t>(auditor_.violations().size());
  Emit(check_time, SimEventType::kAuditCheck, kClusterEventJobId, 0, 0,
       static_cast<double>(metrics_.audit_violations), full ? "full" : "incremental");
  if (metrics_.audit_violations > 0 && flight_.enabled() && !flight_dumped_) {
    // Post-mortem: dump the recent-event tail once, at the first violation,
    // while the decisions that led up to it are still in the ring.
    flight_dumped_ = true;
    OPTIMUS_LOG(Error) << "invariant violation detected at t=" << check_time
                       << "s; dumping flight recorder (" << flight_.size()
                       << " recent events)";
    flight_.Dump(std::cerr);
  }
}

void Simulator::CollectRoundInputs(std::vector<JobRuntime*>* schedulable,
                                   std::vector<JobRuntime*>* frozen,
                                   Resources* out_capacity) {
  // Allocate against slot-quantized capacity so the allocators do not hand
  // out allocations that per-server fragmentation makes unplaceable.
  Resources reference_demand;
  for (const auto& jr : Live()) {
    if (jr->job.state() != JobState::kCompleted) {
      reference_demand = jr->job.spec().worker_demand;
      break;
    }
  }
  if (!placeable_cap_valid_ || !(placeable_cap_demand_ == reference_demand)) {
    placeable_cap_cache_ = PlaceableCapacity(servers_, reference_demand);
    placeable_cap_demand_ = reference_demand;
    placeable_cap_valid_ = true;
  }
  Resources capacity = placeable_cap_cache_;

  // Carve out the background-workload reservation (the caller pre-occupies
  // the per-server share; the scalar shrink happens here so the arithmetic
  // order is one fixed sequence for rounds and what-if queries alike).
  const double bg_share = BackgroundShare(now_s_);
  if (bg_share > 0.0) {
    capacity = capacity * (1.0 - bg_share);
  }

  for (const auto& jr : Live()) {
    if (jr->job.state() == JobState::kCompleted) {
      continue;
    }
    if (jr->backoff_until_s > now_s_) {
      // Relaunch backoff after repeated evictions: the job sits out this
      // round entirely (neither schedulable nor frozen), capping the
      // relaunch storm a flapping server would otherwise cause.
      continue;
    }
    const bool budget_spent = !ScalingAllowed(jr->job.num_scalings(), config_.checkpoint);
    if (budget_spent && jr->job.num_workers() > 0) {
      frozen->push_back(jr.get());
      capacity -= jr->job.spec().worker_demand * jr->job.num_workers() +
                  jr->job.spec().ps_demand * jr->job.num_ps();
    } else {
      schedulable->push_back(jr.get());
    }
  }
  *out_capacity = capacity;
}

void Simulator::ScheduleActiveJobs() {
  // Split active jobs into schedulable and frozen (checkpoint budget spent:
  // they keep their allocation and are only re-placed).
  std::vector<JobRuntime*> schedulable;
  std::vector<JobRuntime*> frozen;
  Resources capacity;
  CollectRoundInputs(&schedulable, &frozen, &capacity);

  // Start the placement round: restore the servers the last round touched,
  // with the background-workload reservation pre-occupied on every server
  // (the capacity shrink already happened in CollectRoundInputs).
  placement_state_.BeginRound(servers_, BackgroundShare(now_s_));

  // Serial: a scheduler view is a small value (demands, caps, a speed
  // estimate), too little work per job for a pool fan-out to pay for its
  // dispatch.
  std::vector<SchedJob> sched_jobs;
  sched_jobs.reserve(schedulable.size());
  for (JobRuntime* jr : schedulable) {
    sched_jobs.push_back(MakeSchedJob(jr));
  }
  // One memoized-surface set per round, owned here (instead of the 2-arg
  // Allocate convenience overload building a hidden one) so its probe/eval
  // counters can feed the metrics registry. Decisions are identical.
  SpeedSurfaceSet surfaces;
  std::vector<Allocation> alloc = allocator_->Allocate(sched_jobs, capacity, &surfaces);
  surface_probes_ += surfaces.probes();
  surface_evals_ += surfaces.evals();
  surface_count_ += static_cast<int64_t>(surfaces.num_surfaces());

  // Scaling hysteresis: switching (p, w) costs a checkpoint-restart, so keep
  // the old allocation when the estimated completion-time saving does not
  // cover that stall (§7 "Scaling overhead"). Policies whose traits turn
  // scaling_hysteresis off (DRF, the oblivious work-conserving baseline the
  // paper compares against) take the allocator's output as is.
  if (scaling_hysteresis_) {
    for (size_t i = 0; i < schedulable.size(); ++i) {
      const Job& job = schedulable[i]->job;
      const Allocation old_alloc{job.num_ps(), job.num_workers()};
      if (!WorthRescaling(sched_jobs[i], old_alloc, alloc[i],
                          CheckpointStallSeconds(*job.spec().model))) {
        alloc[i] = old_alloc;
      }
    }
  }

  // Placement covers frozen jobs (at their existing counts) plus newly
  // allocated ones.
  std::vector<PlacementJobInput> inputs;
  inputs.reserve(frozen.size() + schedulable.size());
  for (JobRuntime* jr : frozen) {
    inputs.push_back({jr->job.id(),
                      {jr->job.num_ps(), jr->job.num_workers()},
                      jr->job.spec().worker_demand,
                      jr->job.spec().ps_demand,
                      jr->job.spec().comm});
  }
  for (size_t i = 0; i < schedulable.size(); ++i) {
    const JobSpec& spec = schedulable[i]->job.spec();
    inputs.push_back(
        {spec.id, alloc[i], spec.worker_demand, spec.ps_demand, spec.comm});
  }
  std::vector<PlacedJob> placed = PlaceJobs(config_.placement, inputs, &placement_state_,
                                            /*shrink_to_fit=*/true, config_.rack_size);

  // Apply decisions in job order. `frozen` and `schedulable` are each in job
  // order too (CollectRoundInputs walks jobs_), so two cursors find each
  // job's input slot: frozen jobs fill the first slots, schedulable ones the
  // rest.
  size_t next_frozen = 0;
  size_t next_schedulable = 0;
  for (const auto& jr : Live()) {
    if (jr->job.state() == JobState::kCompleted) {
      continue;
    }
    // Batch decisions ride on the allocator's own output, which the inputs
    // carry (placement is not required to preserve the advisory
    // global_batch). -1 = not schedulable this round: frozen jobs keep their
    // current override.
    PlacedJob* result = nullptr;
    int batch = -1;
    if (next_frozen < frozen.size() && frozen[next_frozen] == jr.get()) {
      result = &placed[next_frozen++];
    } else if (next_schedulable < schedulable.size() &&
               schedulable[next_schedulable] == jr.get()) {
      const size_t slot = frozen.size() + next_schedulable++;
      result = &placed[slot];
      batch = inputs[slot].alloc.global_batch;
    }
    const int id = jr->job.id();
    const bool placeable = result != nullptr && result->placed &&
                           ActiveAllocation(result->alloc, jr->job.spec().comm);
    const Allocation a = placeable ? result->alloc : Allocation{};

    const int old_ps = jr->job.num_ps();
    const JobState old_state = jr->job.state();
    bool scaled = false;
    if (placeable) {
      const bool first_schedule = old_state == JobState::kPending;
      // `placed` is dead after this loop, so the placement's vectors can
      // move into the job instead of being copied.
      scaled = jr->job.SetAllocation(a.num_ps, a.num_workers,
                                     std::move(result->placement));
      if (batch >= 0) {
        // 0 resets to the configured batch (non-adaptive policies and
        // non-adaptive jobs); >0 is a batch-adaptive policy's choice. A
        // batch-only change is not a scaling event: same (p, w), no
        // checkpoint stall — the framework just feeds larger mini-batches.
        jr->job.set_batch_override(batch);
      }
      auditor_.SetPlacement(id, jr->job.spec().worker_demand,
                            jr->job.spec().ps_demand, jr->job.placement());
      jr->job.set_state(JobState::kRunning);
      if (first_schedule) {
        Emit(now_s_, SimEventType::kScheduled, id, a.num_ps, a.num_workers);
      } else if (old_state == JobState::kPaused) {
        Emit(now_s_, SimEventType::kResumed, id, a.num_ps, a.num_workers);
      } else if (scaled) {
        Emit(now_s_, SimEventType::kScaled, id, a.num_ps, a.num_workers);
      }
    } else {
      jr->job.SetAllocation(0, 0, {});
      jr->job.set_batch_override(0);
      auditor_.ClearPlacement(id);
      jr->job.set_state(jr->job.steps_done() > 0 ? JobState::kPaused
                                                 : JobState::kPending);
      if (old_state == JobState::kRunning) {
        Emit(now_s_, SimEventType::kPaused, id);
      }
    }
    if (scaled) {
      // Scaling saves the model and restarts from it (§5.4), so the scaled-to
      // point is also the job's latest durable checkpoint.
      jr->job.AddStall(CheckpointStallSeconds(*jr->job.spec().model));
      jr->job.TakeCheckpoint();
      jr->last_checkpoint_time_s = now_s_;
      ++metrics_.total_scalings;
      Emit(now_s_, SimEventType::kCheckpoint, id, jr->job.num_ps(),
           jr->job.num_workers(), 0.0, "scaling");
    }
    // Data serving (§5.1): rebalance training chunks whenever the worker
    // count changes; moved chunks stall the job briefly.
    if (jr->job.num_workers() > 0 &&
        jr->job.num_workers() != jr->data->num_workers()) {
      const int64_t moved = jr->data->Rebalance(jr->job.num_workers());
      if (moved > 0 && config_.chunk_move_s > 0.0) {
        jr->job.AddStall(static_cast<double>(moved) * config_.chunk_move_s);
      }
    }
    if (jr->job.num_ps() != old_ps || (placeable && !jr->load_valid)) {
      RecomputeLoad(jr.get());
    }
    if (jr->job.state() == JobState::kRunning &&
        straggler_.Step(&jr->job, &jr->rng)) {
      Emit(now_s_, SimEventType::kStragglerReplaced, id, jr->job.num_ps(),
           jr->job.num_workers());
    }
  }
  OPTIMUS_CHECK(next_frozen == frozen.size() &&
                next_schedulable == schedulable.size());
}

void Simulator::AdvanceJob(JobRuntime* jr, AdvanceOutcome* out) {
  const double dt = config_.interval_s;
  Job& job = jr->job;
  const JobSpec& spec = job.spec();

  // Stalls (checkpoint restore, straggler relaunch) eat into the interval.
  const double stalled = job.ConsumeStall(dt);
  const double train_time = dt - stalled;
  if (train_time <= 0.0) {
    return;
  }

  const double noise = jr->rng.LogNormalFactor(config_.runtime_noise_sd);
  // steps/s; cluster-wide slowdown bursts scale every job equally.
  const double speed = TrueSpeed(*jr) * noise * cluster_slow_factor_;
  if (speed <= 0.0) {
    return;
  }
  ResetEvictionStreak(jr);

  const double steps_before = job.steps_done();
  const double steps_after = steps_before + speed * train_time;
  const double spe = static_cast<double>(spec.StepsPerEpoch());

  // Walk epoch boundaries crossed this interval; each completed epoch
  // yields one observed epoch-mean loss for convergence detection.
  const int64_t first_epoch = static_cast<int64_t>(steps_before / spe) + 1;
  const int64_t last_epoch = static_cast<int64_t>(steps_after / spe);
  for (int64_t e = first_epoch; e <= last_epoch && !out->completed; ++e) {
    if (ObserveEpochLoss(jr, e)) {
      // Converged at this epoch boundary: interpolate the wall time.
      const double boundary_steps = static_cast<double>(e) * spe;
      const double t_done = stalled + (boundary_steps - steps_before) / speed;
      job.AdvanceSteps(boundary_steps - steps_before);
      job.MarkCompleted(now_s_ + std::min(t_done, dt));
      out->completed = true;
      out->completed_epoch = e;
    }
  }
  if (!out->completed) {
    job.AdvanceSteps(steps_after - steps_before);
  }
  out->lr_drop = ApplyLrDrop(jr);

  if (!config_.oracle_estimates) {
    // Feed the convergence model with per-step loss observations spread
    // over the interval, and the speed model with the measured speed. A job
    // that completed this interval keeps its samples (the draws advance its
    // RNG either way) but is not refit: nothing reads a finished job's
    // estimates.
    FeedLossSamples(jr, steps_before, job.steps_done(),
                    config_.conv_samples_per_interval);
    const SpeedSample sample = SpeedSampleAt(*jr, speed);
    jr->speed->AddSample(sample.num_ps, sample.num_workers, sample.speed);
    if (!out->completed) {
      FitModels(jr);
    }
  }
  SnapshotUtilization(jr);
  out->ran = true;
}

bool Simulator::ObserveEpochLoss(JobRuntime* jr, int64_t epoch) {
  const double epoch_loss =
      jr->curve.TrueLossAtEpoch(static_cast<double>(epoch)) *
      jr->rng.LogNormalFactor(jr->job.spec().model->loss.noise_sd * 0.3);
  return jr->job.RecordEpochLoss(epoch_loss);
}

bool Simulator::ApplyLrDrop(JobRuntime* jr) {
  const JobSpec& spec = jr->job.spec();
  if (!spec.lr_drop.has_value() || jr->lr_drop_handled ||
      jr->job.EpochsDone() < spec.lr_drop->epoch) {
    return false;
  }
  jr->lr_drop_handled = true;
  jr->conv->Reset();
  return true;
}

void Simulator::FeedLossSamples(JobRuntime* jr, double from_step,
                                double to_step, int n) {
  for (int i = 1; i <= n; ++i) {
    const double step = from_step + (to_step - from_step) * i / n;
    if (step <= from_step) {
      continue;
    }
    const double sample =
        jr->curve.SampleLossAtStep(static_cast<int64_t>(step), &jr->rng);
    jr->conv->AddSample(step, sample);
  }
}

Simulator::SpeedSample Simulator::SpeedSampleAt(const JobRuntime& jr,
                                                double speed) const {
  const Job& job = jr.job;
  const JobSpec& spec = job.spec();
  SpeedSample sample;
  sample.num_ps = spec.comm == CommMode::kAllReduce ? 1 : job.num_ps();
  sample.num_workers = job.num_workers();
  sample.speed = speed;
  // Undo what TrueSpeed applied for the override: the analytic step-time
  // ratio and the larger batch's efficiency factor.
  const int batch_override =
      spec.mode == TrainingMode::kSync ? job.batch_override() : 0;
  if (batch_override > 0) {
    StepTimeInputs in = LiveStepInputs(jr);  // at the override batch
    const double s_b = TrainingSpeed(in, config_.comm);
    in.global_batch = spec.GlobalBatch();
    const double s_ref = TrainingSpeed(in, config_.comm);
    if (s_b > 0.0 && s_ref > 0.0) {
      sample.speed = speed * (s_ref / s_b) /
                     BatchProgressFactor(spec.GradNoiseScale(), spec.GlobalBatch(),
                                         batch_override);
    }
  }
  return sample;
}

void Simulator::FitModels(JobRuntime* jr) const {
  jr->speed->Fit();
  jr->conv->Fit();
}

void Simulator::SnapshotUtilization(JobRuntime* jr) const {
  const StepTimeBreakdown b = ComputeStepTime(LiveStepInputs(*jr), config_.comm);
  if (b.total_s > 0.0) {
    jr->last_worker_util = 100.0 * (b.forward_s + b.backward_s) / b.total_s;
    jr->last_ps_util = 100.0 * (b.update_s + b.overhead_s) / b.total_s;
  }
}

void Simulator::ResetEvictionStreak(JobRuntime* jr) {
  jr->consecutive_evictions = 0;
  jr->backoff_until_s = -1.0;
}

double Simulator::NextEpochTime(const JobRuntime& jr, double t) {
  const double spe = static_cast<double>(jr.job.spec().StepsPerEpoch());
  return t + jr.job.stall_remaining_s() +
         (static_cast<double>(jr.seg_next_epoch) * spe - jr.job.steps_done()) /
             jr.seg_speed;
}

void Simulator::RecordTimeline(double t, const std::vector<JobRuntime*>& trained) {
  int running_tasks = 0;
  RunningStat worker_util;
  RunningStat ps_util;
  for (const JobRuntime* jr : trained) {
    running_tasks += jr->job.num_workers() + jr->job.num_ps();
    worker_util.Add(jr->last_worker_util);
    ps_util.Add(jr->last_ps_util);
  }
  if (config_.record_timeline) {
    metrics_.timeline.push_back({t, running_tasks,
                                 worker_util.count() > 0 ? worker_util.mean() : 0.0,
                                 ps_util.count() > 0 ? ps_util.mean() : 0.0});
  }
  running_tasks_ = running_tasks;
}

double Simulator::NextRoundAtOrAfter(double from, double t) const {
  const double intervals = std::ceil((t - from) / config_.interval_s);
  return from + std::max(1.0, intervals) * config_.interval_s;
}

void Simulator::AdvanceInterval() {
  const double dt = config_.interval_s;

  // Fan the per-job stepping out over the pool. AdvanceJob touches only
  // job-owned state (the job, its models, its RNG streams) and buffers every
  // shared-state effect in its outcome slot; the serial merge below applies
  // those effects in job order, so the run is bitwise identical to the
  // single-threaded one for any thread count.
  std::vector<JobRuntime*> running;
  running.reserve(jobs_.size());
  for (const auto& jr : Live()) {
    if (jr->job.state() == JobState::kRunning) {
      running.push_back(jr.get());
    }
  }
  std::vector<AdvanceOutcome> outcomes(running.size());
  pool_->ParallelFor(static_cast<int64_t>(running.size()),
                     [&](int64_t i) { AdvanceJob(running[i], &outcomes[i]); });

  std::vector<JobRuntime*> trained;
  std::vector<size_t> done;
  for (size_t i = 0; i < running.size(); ++i) {
    if (outcomes[i].completed) {
      done.push_back(i);
    }
    if (outcomes[i].ran) {
      trained.push_back(running[i]);
    }
  }

  // Record completions at their analytic times (interpolated to the epoch
  // boundary by AdvanceJob), not the interval boundary: quantizing the
  // trace/flight stamp to now + dt inflated apparent completion times by up
  // to a full interval. JCT itself was always exact — MarkCompleted
  // interpolates — so only the recorded timestamps move. Emission is sorted
  // by (time, job id) because the trace requires time-ordered records and
  // completions land anywhere inside the interval; lr-drop events follow at
  // the boundary, at or after every completion time.
  std::sort(done.begin(), done.end(), [&](size_t a, size_t b) {
    const double ta = running[a]->job.completion_time_s();
    const double tb = running[b]->job.completion_time_s();
    if (ta != tb) {
      return ta < tb;
    }
    return running[a]->job.id() < running[b]->job.id();
  });
  for (size_t i : done) {
    CompleteJob(running[i], outcomes[i].completed_epoch);
  }
  for (size_t i = 0; i < running.size(); ++i) {
    if (outcomes[i].lr_drop) {
      const Job& job = running[i]->job;
      Emit(now_s_ + dt, SimEventType::kLearningRateDrop, job.id(), job.num_ps(),
           job.num_workers());
    }
  }

  RecordTimeline(now_s_ + dt, trained);
  job_totals_stale_ = true;  // AdvanceJob fits the models
}

bool Simulator::StepInterval() {
  ++state_generation_;
  if (metrics_.completed_jobs >= metrics_.total_jobs) {
    return false;
  }
  if (now_s_ >= config_.max_sim_time_s) {
    // Batch runs stop at the cap via the return value below and never call
    // again; re-entrant callers (AdvanceTo) may — refuse to step past it.
    return false;
  }
  ActivateArrivals();

  // Fast-forward to the next arrival when the cluster is idle.
  if (!AnyIncompleteLive()) {
    const double next_arrival = NextArrival();
    if (!std::isfinite(next_arrival)) {
      return false;  // nothing left anywhere
    }
    now_s_ = NextRoundAtOrAfter(now_s_, next_arrival);
    ActivateArrivals();
  }

  // Per-phase wall-clock accounting via the profiler (profiling only; never
  // feeds back into simulated time or decisions, so determinism is
  // unaffected). SyncRunMetrics copies the accumulated phase totals into the
  // RunMetrics wall_* fields so interval-stepping callers see cumulative
  // values.
  {
    ScopedTimer timer(&profiler_, phase_faults_);
    ApplyFaults();
  }
  {
    ScopedTimer timer(&profiler_, phase_schedule_);
    ScheduleActiveJobs();
    // Placements are final for the interval: resolve per-job bandwidths over
    // them before anyone trains at TrueSpeed.
    RefreshNetwork();
  }
  {
    ScopedTimer timer(&profiler_, phase_advance_);
    AdvanceInterval();
  }
  if (config_.audit) {
    ScopedTimer timer(&profiler_, phase_audit_);
    RunAudit();
  }
  SyncRunMetrics();
  now_s_ += config_.interval_s;
  SampleObservability();
  RetireCompleted();
  return metrics_.completed_jobs < metrics_.total_jobs &&
         now_s_ < config_.max_sim_time_s;
}

RunMetrics Simulator::Run() {
  ++state_generation_;
  if (config_.engine == SimEngine::kEvents) {
    StepEventsUntil(std::numeric_limits<double>::infinity());
  } else {
    while (StepInterval()) {
    }
  }

  // Aggregate. Rebuilt from scratch so Run() stays re-entrant — a service
  // session may call it after partial AdvanceTo stepping, or more than once.
  metrics_.jcts.clear();
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_completion = 0.0;
  double overhead_sum = 0.0;
  int overhead_count = 0;
  // Every job in order-key order, retired records merged with live runtimes,
  // so the floating-point accumulation is one fixed sequence however the
  // jobs were admitted and retired.
  auto fold = [&](const JobSnapshot& s) {
    first_arrival = std::min(first_arrival, s.arrival_time_s);
    if (s.killed || s.state != JobState::kCompleted) {
      return;  // a killed job did not converge: no JCT, no makespan
    }
    metrics_.jcts.push_back(s.jct_s);
    last_completion = std::max(last_completion, s.completion_time_s);
    if (s.jct_s > 0.0) {
      overhead_sum += s.total_stall_s / s.jct_s;
      ++overhead_count;
    }
  };
  std::sort(retired_.begin(), retired_.end(),
            [](const RetiredJob& a, const RetiredJob& b) { return a.key < b.key; });
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
  // Specs that never arrived (simulation-time cap) still mark the
  // workload's start.
  if (const std::optional<size_t> key = PendingHead()) {
    first_arrival = std::min(first_arrival, pending_specs_[*key].arrival_time_s);
  }
  metrics_.avg_jct_s = Mean(metrics_.jcts);
  // Guard the empty-jobs case too: with no jobs, first_arrival stays +inf and
  // the subtraction would poison the makespan with -inf.
  metrics_.makespan_s = metrics_.jcts.empty() || !std::isfinite(first_arrival)
                            ? 0.0
                            : last_completion - first_arrival;
  metrics_.scaling_overhead_fraction =
      overhead_count > 0 ? overhead_sum / overhead_count : 0.0;
  metrics_.straggler_replacements = straggler_.replacements();

  if (config_.audit && !auditor_.ok()) {
    OPTIMUS_LOG(Error) << "invariant audit failed: " << auditor_.Summary();
  }
  return metrics_;
}

void Simulator::AdvanceTo(double t) {
  ++state_generation_;
  if (config_.engine == SimEngine::kEvents) {
    StepEventsUntil(t);
    return;
  }
  while (now_s_ < t) {
    if (!StepInterval()) {
      break;
    }
  }
}

bool Simulator::SubmitJob(const JobSpec& spec, std::string* error) {
  ++state_generation_;
  auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  if (spec.model == nullptr) {
    return fail("job model is null");
  }
  IndexPendingSpecs();
  if (job_refs_.count(spec.id) > 0) {
    return fail("job id " + std::to_string(spec.id) + " already exists");
  }
  if (spec.arrival_time_s < now_s_) {
    std::ostringstream os;
    os << "arrival_time_s " << spec.arrival_time_s << " is in the past (now "
       << now_s_ << ")";
    return fail(os.str());
  }

  // Queued like a constructor spec, with the next order key. Its RNG streams
  // are split from the run seed by job id when it arrives, so a job
  // submitted online draws the same streams it would have as a constructor
  // spec.
  const size_t key = pending_specs_.size();
  pending_specs_.push_back(spec);
  pending_heap_.push({spec.arrival_time_s, key});
  job_refs_.emplace(spec.id, JobRef{key, nullptr});
  ++metrics_.total_jobs;

  if (config_.engine == SimEngine::kEvents) {
    QueueNextArrival();
  }
  return true;
}

bool Simulator::KillJob(int job_id, std::string* error) {
  ++state_generation_;
  auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  IndexPendingSpecs();
  const auto it = job_refs_.find(job_id);
  if (it == job_refs_.end()) {
    return fail("unknown job id " + std::to_string(job_id));
  }
  JobRuntime* jr = it->second.live;
  if (jr == nullptr) {
    const size_t key = it->second.key;
    if (pending_specs_[key].model == nullptr) {
      return fail("job " + std::to_string(job_id) + " already completed");
    }
    // Killed before its arrival: the runtime is built only to be killed, and
    // never arrives.
    jr = MaterializeSpec(TakePending(key), key);
  }
  Job& job = jr->job;
  if (job.state() == JobState::kCompleted) {
    return fail("job " + std::to_string(job_id) + " already completed");
  }
  const int event_ps = job.num_ps();
  const int event_workers = job.num_workers();
  if (job.num_workers() > 0 || job.num_ps() > 0) {
    job.SetAllocation(0, 0, {});
  }
  auditor_.ClearPlacement(job.id());
  // Event engine: stop the segment. Progress since the job's last boundary
  // or settle is discarded — the job is being cancelled — and the kill is
  // deterministic either way.
  EndSegment(jr);
  // Kills count as completions in the accounting invariants (the auditor
  // checks completed states against the completion metric).
  jr->killed = true;
  job.MarkCompleted(now_s_);
  job_totals_stale_ = true;
  Emit(now_s_, SimEventType::kKilled, job.id(), event_ps, event_workers);
  return true;
}

std::unique_ptr<AdmissionBaseline> Simulator::MakeAdmissionBaseline(const int* without_id) {
  std::vector<JobRuntime*> schedulable;
  std::vector<JobRuntime*> frozen;
  Resources capacity;
  CollectRoundInputs(&schedulable, &frozen, &capacity);

  std::vector<SchedJob> existing;
  existing.reserve(schedulable.size());
  for (JobRuntime* jr : schedulable) {
    if (without_id != nullptr && jr->job.id() == *without_id) {
      continue;
    }
    existing.push_back(MakeSchedJob(jr));
  }
  return std::make_unique<AdmissionBaseline>(whatif_allocator_.get(), std::move(existing),
                                             capacity);
}

WhatIfResult Simulator::WhatIf(const JobSpec& candidate) {
  OPTIMUS_CHECK(candidate.model != nullptr) << "what-if candidate model is null";

  // Candidate view: the analytic ground-truth speed model (the oracle path
  // without error injection) and the scheduler's prior for unfitted jobs.
  // No RNG draw, no model fit — the query must leave the session bitwise
  // unchanged.
  SchedJob cand = SchedJobHeader(candidate);
  cand.remaining_epochs = kDefaultRemainingEpochs;
  cand.speed = SpeedEstimate::Oracle(StepProfile::Of(candidate), config_.comm,
                                     static_cast<double>(candidate.StepsPerEpoch()),
                                     /*error=*/0.0,
                                     static_cast<double>(cand.max_ps + cand.max_workers));

  if (whatif_baseline_ == nullptr || whatif_generation_ != state_generation_) {
    whatif_baseline_ = MakeAdmissionBaseline(/*without_id=*/nullptr);
    whatif_generation_ = state_generation_;
  }
  if (whatif_baseline_->HasJob(candidate.id)) {
    // Hypothetical re-submission of a live id: compare without it.
    return MakeAdmissionBaseline(&candidate.id)->Evaluate(cand);
  }
  return whatif_baseline_->Evaluate(cand);
}

}  // namespace optimus
