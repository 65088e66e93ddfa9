// Event-engine run loop (SimEngine::kEvents); see src/sim/event_kernel.h for
// the kernel design and docs/ALGORITHMS.md §16 for the determinism argument
// and the parity contract against the interval engine.
//
// Structure: simulated activity is a deterministic event queue. Scheduling
// rounds stay periodic (one kRound per interval, Algorithm-1 cadence) and
// reuse the interval engine's fault pipeline, scheduler round, and auditor
// verbatim; between rounds each job advances only at its own analytically
// computed epoch-completion events, so untouched jobs cost zero work. Every
// RNG draw flows through job-owned streams in event order and every
// shared-state effect is buffered per event and merged serially in key
// order, keeping outputs bitwise identical for any --threads.

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/sim/simulator.h"

namespace optimus {

void Simulator::EnqueueStaticEvents() {
  events_.reserve((jobs_.size() + pending_count_) * 2 + 64);
  // Every job known so far gets its arrival event up front: the pending
  // specs (the times are known; building the runtime waits for the event,
  // via ActivateArrivals), and any runtime a kill built before seeding.
  for (const auto& jr : Live()) {
    events_.Push({jr->job.spec().arrival_time_s, SimEventKind::kArrival,
                  jr->job.id(), 0});
  }
  for (const JobSpec& spec : pending_specs_) {
    if (spec.model != nullptr) {
      events_.Push({spec.arrival_time_s, SimEventKind::kArrival, spec.id, 0});
    }
  }
  // One kFaultPlan event per distinct scripted edge time; the handler applies
  // every transition due at that instant, so duplicates would be redundant.
  std::vector<double> edges;
  for (const ServerOutage& outage : config_.fault.plan.outages) {
    edges.push_back(outage.start_s);
    if (std::isfinite(outage.recover_s)) {
      edges.push_back(outage.recover_s);
    }
  }
  for (const SlowdownBurst& burst : config_.fault.plan.slowdowns) {
    edges.push_back(burst.start_s);
    edges.push_back(burst.end_s);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (double t : edges) {
    events_.Push({t, SimEventKind::kFaultPlan, -1, 0});
  }
  events_.Push({0.0, SimEventKind::kRound, -1, 0});
}

void Simulator::SettleJob(JobRuntime* jr, double t) {
  if (!jr->seg_active) {
    return;
  }
  const double dt = t - jr->seg_anchor_s;
  if (dt <= 0.0) {
    return;
  }
  const double stalled = jr->job.ConsumeStall(dt);
  const double train = dt - stalled;
  if (train > 0.0 && jr->seg_speed > 0.0) {
    // No epoch boundary lies inside (anchor, t) — boundaries get their own
    // events — so cap the advance at the next boundary to keep floating-point
    // drift from overshooting an unobserved epoch.
    const double spe = static_cast<double>(jr->job.spec().StepsPerEpoch());
    const double cap = std::max(
        0.0, static_cast<double>(jr->seg_next_epoch) * spe - jr->job.steps_done());
    jr->job.AdvanceSteps(std::min(train * jr->seg_speed, cap));
    // Live tasks made progress: reset the relaunch-backoff streak, as the
    // interval engine does for any interval with training time.
    jr->consecutive_evictions = 0;
    jr->backoff_until_s = -1.0;
    jr->ran_since_round = true;
  }
  jr->seg_anchor_s = t;
}

void Simulator::HandleEpochEvent(JobRuntime* jr, double t, EpochOutcome* out) {
  Job& job = jr->job;
  const JobSpec& spec = job.spec();
  const double spe = static_cast<double>(spec.StepsPerEpoch());
  const int64_t e = jr->seg_next_epoch;

  // Settle to the boundary. The event time was computed as
  // anchor + stall + (boundary - steps) / speed, so the stall is consumed en
  // route and the advance lands exactly on the boundary (forced, to keep the
  // boundary arithmetic free of accumulated rounding).
  const double dt = t - jr->seg_anchor_s;
  if (dt > 0.0) {
    jr->job.ConsumeStall(dt);
  }
  job.AdvanceSteps(std::max(0.0, static_cast<double>(e) * spe - job.steps_done()));
  jr->seg_anchor_s = t;
  jr->consecutive_evictions = 0;
  jr->backoff_until_s = -1.0;
  jr->ran_since_round = true;

  const double epoch_loss =
      jr->curve.TrueLossAtEpoch(static_cast<double>(e)) *
      jr->rng.LogNormalFactor(spec.model->loss.noise_sd * 0.3);
  const bool completed = job.RecordEpochLoss(epoch_loss);

  if (!config_.oracle_estimates) {
    // Observe per-step losses across the completed epoch. Feeding is the hot
    // path of the interval engine's advance; here it is a handful of samples
    // per epoch and the fits are deferred to the round's model refresh.
    const int n = config_.conv_samples_per_epoch;
    const double epoch_start = static_cast<double>(e - 1) * spe;
    for (int i = 1; i <= n; ++i) {
      const double step = epoch_start + spe * i / n;
      if (step <= 0.0) {
        continue;
      }
      const double sample =
          jr->curve.SampleLossAtStep(static_cast<int64_t>(step), &jr->rng);
      jr->conv->AddSample(step, sample);
      if (jr->multi_conv != nullptr) {
        jr->multi_conv->AddSample(step, sample);
      }
    }
  }

  if (spec.lr_drop.has_value() && !jr->lr_drop_handled &&
      job.EpochsDone() >= spec.lr_drop->epoch) {
    jr->lr_drop_handled = true;
    if (jr->conv != nullptr) {
      jr->conv->Reset();
    }
    if (jr->multi_conv != nullptr) {
      jr->multi_conv->Reset();
    }
    out->lr_drop = true;
  }
  out->event_ps = job.num_ps();
  out->event_workers = job.num_workers();

  if (completed) {
    // Exact analytic completion time — no interval-boundary quantization.
    job.MarkCompleted(t);
    jr->seg_active = false;
    ++jr->gen;
    out->completed = true;
    out->completed_epoch = e;
  } else {
    jr->seg_next_epoch = e + 1;
    out->push_next = true;
    out->next_time_s = t + job.stall_remaining_s() + spe / jr->seg_speed;
  }
}

void Simulator::ProcessEpochBatch(const std::vector<SimKernelEvent>& batch) {
  const double t = batch.front().time_s;

  // Stale filter (serial, cheap): events whose generation no longer matches
  // were superseded by a reschedule, an eviction, or completion.
  std::vector<JobRuntime*> live;
  live.reserve(batch.size());
  {
    ScopedTimer timer(&profiler_, phase_events_);
    for (const SimKernelEvent& event : batch) {
      const auto it = job_refs_.find(static_cast<int>(event.job_id));
      OPTIMUS_CHECK(it != job_refs_.end());
      JobRuntime* jr = it->second.live;
      // A retired job has no runtime; any epoch event it left behind is stale
      // by definition (retirement requires completion, which bumped the gen).
      if (jr == nullptr || !jr->seg_active || jr->gen != event.gen) {
        ++events_stale_dropped_;
        continue;
      }
      live.push_back(jr);
    }
  }
  if (live.empty()) {
    return;
  }

  // The per-job handlers touch only job-owned state and buffer shared-state
  // effects in their index-owned slots; the merge below applies them in event
  // (ascending job id) order. Epoch times are continuous, so batches of more
  // than one event are rare, and the handlers run serially.
  std::vector<EpochOutcome> outcomes(live.size());
  {
    ScopedTimer timer(&profiler_, phase_events_);
    for (size_t i = 0; i < live.size(); ++i) {
      HandleEpochEvent(live[i], t, &outcomes[i]);
    }

    for (size_t i = 0; i < live.size(); ++i) {
      JobRuntime* jr = live[i];
      const EpochOutcome& out = outcomes[i];
      event_counts_.Note(SimEventKind::kEpoch);
      if (out.completed) {
        CompleteJob(jr, out.event_ps, out.event_workers, out.completed_epoch);
      }
      if (out.lr_drop) {
        Emit(t, SimEventType::kLearningRateDrop, jr->job.id(), out.event_ps,
             out.event_workers);
      }
      if (out.push_next) {
        events_.Push({out.next_time_s, SimEventKind::kEpoch, jr->job.id(),
                      jr->gen});
      }
    }
  }
}

void Simulator::HandleFaultPlanEvent(double t) {
  // Evictions happen at the exact crash instant: a job that loses tasks
  // mid-round stops training then, not at the next boundary (EvictJob
  // deactivates the job's segment, invalidating its pending epoch event).
  bool slow_changed = false;
  const bool evicted_any = ApplyServerEdges(&slow_changed);

  // Evicted jobs released their flows: re-solve the fabric so survivors run
  // at the freed-link bandwidths from the crash instant onward, re-anchoring
  // their segments exactly like a slowdown edge. No-op under the flat model.
  const bool bw_changed = evicted_any && RefreshNetwork();

  // A slowdown edge changes every active segment's speed: settle each at the
  // old speed up to t, recompute with the same round noise draw, reschedule.
  if (slow_changed || bw_changed) {
    for (const auto& jr : Live()) {
      if (!jr->seg_active) {
        continue;
      }
      SettleJob(jr.get(), t);
      jr->seg_speed = TrueSpeed(*jr) * jr->seg_noise * cluster_slow_factor_;
      ++jr->gen;
      if (jr->seg_speed > 0.0) {
        const double spe = static_cast<double>(jr->job.spec().StepsPerEpoch());
        const double next_time =
            t + jr->job.stall_remaining_s() +
            (static_cast<double>(jr->seg_next_epoch) * spe - jr->job.steps_done()) /
                jr->seg_speed;
        events_.Push({next_time, SimEventKind::kEpoch, jr->job.id(), jr->gen});
      } else {
        jr->seg_active = false;
      }
    }
  }
}

void Simulator::RefreshModels() {
  job_totals_stale_ = true;
  if (config_.oracle_estimates) {
    for (const auto& jr : Live()) {
      jr->ran_since_round = false;
    }
    return;
  }
  std::vector<JobRuntime*> dirty;
  for (const auto& jr : Live()) {
    if (jr->ran_since_round) {
      dirty.push_back(jr.get());
      jr->ran_since_round = false;
    }
  }
  // One speed-model measurement per trained span (the interval engine's
  // cadence) plus the deferred fits. All per-job-owned state. A job that
  // completed during the span is not refit, as on the interval engine:
  // nothing reads a finished job's estimates.
  auto refresh = [&](JobRuntime* jr) {
    jr->speed->AddSample(jr->seg_sample_ps, jr->seg_sample_workers,
                         jr->seg_sample_speed);
    if (jr->job.state() == JobState::kCompleted) {
      return;
    }
    jr->speed->Fit();
    jr->conv->Fit();
    if (jr->multi_conv != nullptr) {
      jr->multi_conv->Fit();
    }
  };
  if (pool_ != nullptr && dirty.size() > 1) {
    pool_->ParallelFor(static_cast<int64_t>(dirty.size()),
                       [&](int64_t i) { refresh(dirty[i]); });
  } else {
    for (JobRuntime* jr : dirty) {
      refresh(jr);
    }
  }
}

void Simulator::RebuildSegments() {
  const double t = now_s_;
  // Every pending epoch event dies here (generation bump); running jobs get a
  // fresh segment — new noise draw, current allocation/placement/slowdown —
  // and exactly one new epoch event each.
  std::vector<JobRuntime*> running;
  for (const auto& jr : Live()) {
    if (jr->job.state() == JobState::kCompleted) {
      continue;
    }
    ++jr->gen;
    jr->seg_active = false;
    // All-reduce jobs run with zero PS tasks; workers alone make them live.
    const bool needs_ps = jr->job.spec().comm != CommMode::kAllReduce;
    if (jr->job.state() == JobState::kRunning && jr->job.num_workers() > 0 &&
        (!needs_ps || jr->job.num_ps() > 0)) {
      running.push_back(jr.get());
    }
  }

  // Parallel per-job segment math: one noise draw from the job's own stream
  // (the interval engine's per-interval cadence), ground-truth speed at the
  // fresh placement, and the utilization snapshot the timeline records.
  std::vector<double> next_time(running.size(), 0.0);
  auto build = [&](size_t i) {
    JobRuntime* jr = running[i];
    Job& job = jr->job;
    const JobSpec& spec = job.spec();
    jr->seg_noise = jr->rng.LogNormalFactor(config_.runtime_noise_sd);
    const double speed = TrueSpeed(*jr) * jr->seg_noise * cluster_slow_factor_;
    const StepTimeBreakdown b = ComputeStepTime(LiveStepInputs(*jr), config_.comm);
    if (b.total_s > 0.0) {
      jr->last_worker_util = 100.0 * (b.forward_s + b.backward_s) / b.total_s;
      jr->last_ps_util = 100.0 * (b.update_s + b.overhead_s) / b.total_s;
    }
    if (speed <= 0.0) {
      return;
    }
    const double spe = static_cast<double>(spec.StepsPerEpoch());
    jr->seg_active = true;
    jr->seg_anchor_s = t;
    jr->seg_speed = speed;
    jr->seg_next_epoch =
        static_cast<int64_t>(job.steps_done() / spe) + 1;
    // All-reduce measurements land on the fitted model's p = 1 row (the job
    // itself runs zero PS tasks), matching the interval engine's feeding.
    jr->seg_sample_ps =
        spec.comm == CommMode::kAllReduce ? 1 : job.num_ps();
    jr->seg_sample_workers = job.num_workers();
    jr->seg_sample_speed = speed;
    next_time[i] = t + job.stall_remaining_s() +
                   (static_cast<double>(jr->seg_next_epoch) * spe -
                    job.steps_done()) / speed;
  };
  if (pool_ != nullptr && running.size() > 1) {
    pool_->ParallelFor(static_cast<int64_t>(running.size()),
                       [&](int64_t i) { build(static_cast<size_t>(i)); });
  } else {
    for (size_t i = 0; i < running.size(); ++i) {
      build(i);
    }
  }
  // Serial pushes in job order keep the heap contents deterministic.
  for (size_t i = 0; i < running.size(); ++i) {
    if (running[i]->seg_active) {
      events_.Push({next_time[i], SimEventKind::kEpoch, running[i]->job.id(),
                    running[i]->gen});
    }
  }

  // Timeline sample for the upcoming span (the interval engine records the
  // same tuple at each boundary).
  int running_tasks = 0;
  RunningStat worker_util;
  RunningStat ps_util;
  for (JobRuntime* jr : running) {
    if (!jr->seg_active) {
      continue;
    }
    running_tasks += jr->job.num_workers() + jr->job.num_ps();
    worker_util.Add(jr->last_worker_util);
    ps_util.Add(jr->last_ps_util);
  }
  if (config_.record_timeline) {
    metrics_.timeline.push_back({t + config_.interval_s, running_tasks,
                                 worker_util.count() > 0 ? worker_util.mean() : 0.0,
                                 ps_util.count() > 0 ? ps_util.mean() : 0.0});
  }
  running_tasks_ = running_tasks;
}

void Simulator::HandleRoundEvent(double t) {
  last_round_s_ = t;
  // Idle fast-forward, mirroring the interval engine: with no live,
  // incomplete job, skip — without fault/schedule/audit work — to the round
  // boundary at or after the next arrival. (Arrivals activate through their
  // own events before that round fires.)
  bool any_active = false;
  for (const auto& jr : Live()) {
    if (jr->job.state() != JobState::kCompleted) {
      any_active = true;
      break;
    }
  }
  if (!any_active) {
    const double next_arrival = NextArrival();
    if (!std::isfinite(next_arrival)) {
      return;  // nothing left anywhere: no further rounds
    }
    const double intervals = std::ceil((next_arrival - t) / config_.interval_s);
    events_.Push({t + std::max(1.0, intervals) * config_.interval_s,
                  SimEventKind::kRound, -1, 0});
    ++pending_rounds_;
    return;
  }

  // End-of-span bookkeeping: bring every active segment to the boundary and
  // run the deferred model feeding/fits, so this round's scheduler sees
  // estimates that reflect all training up to t (the interval engine feeds
  // models at the end of its advance phase, before the next round's faults).
  {
    ScopedTimer timer(&profiler_, phase_events_);
    for (const auto& jr : Live()) {
      if (jr->seg_active) {
        SettleJob(jr.get(), t);
      }
    }
  }
  {
    ScopedTimer timer(&profiler_, phase_events_);
    RefreshModels();
  }
  // Retire only after the refresh: a job that completed since the last round
  // still carries its final trained span, whose speed sample the refresh
  // above records exactly as the interval engine does (neither engine refits
  // a completed job).
  RetireCompleted();

  // The shared policy path, verbatim: fault pipeline (periodic checkpoints,
  // stochastic task failures, eviction scan — scripted edges already fired as
  // kFaultPlan events), scheduling round, invariant audit.
  {
    ScopedTimer timer(&profiler_, phase_faults_);
    ApplyFaults();
  }
  {
    ScopedTimer timer(&profiler_, phase_schedule_);
    ScheduleActiveJobs();
    // Placements are final for the round: resolve per-job bandwidths before
    // RebuildSegments computes segment speeds from them.
    RefreshNetwork();
  }
  {
    ScopedTimer timer(&profiler_, phase_events_);
    RebuildSegments();
  }
  if (config_.audit) {
    ScopedTimer timer(&profiler_, phase_audit_);
    RunAudit();
  }

  SampleObservability();

  events_.Push({t + config_.interval_s, SimEventKind::kRound, -1, 0});
  ++pending_rounds_;
}

void Simulator::RunEvents() {
  StepEventsUntil(std::numeric_limits<double>::infinity());
}

void Simulator::StepEventsUntil(double horizon) {
  OPTIMUS_CHECK(config_.engine == SimEngine::kEvents);
  if (!events_seeded_) {
    EnqueueStaticEvents();
    events_seeded_ = true;
    ++pending_rounds_;  // EnqueueStaticEvents pushes the first kRound
  }

  std::vector<SimKernelEvent> batch;
  while (metrics_.completed_jobs < metrics_.total_jobs && !events_.empty() &&
         events_.Top().time_s <= horizon &&
         events_.Top().time_s < config_.max_sim_time_s) {
    {
      ScopedTimer timer(&profiler_, phase_events_);
      events_.PopBatch(&batch);
    }
    now_s_ = batch.front().time_s;
    switch (batch.front().kind) {
      case SimEventKind::kArrival: {
        ScopedTimer timer(&profiler_, phase_events_);
        ActivateArrivals();
        for (size_t i = 0; i < batch.size(); ++i) {
          event_counts_.Note(SimEventKind::kArrival);
        }
        break;
      }
      case SimEventKind::kEpoch:
        ProcessEpochBatch(batch);
        break;
      case SimEventKind::kFaultPlan: {
        ScopedTimer timer(&profiler_, phase_faults_);
        HandleFaultPlanEvent(now_s_);
        event_counts_.Note(SimEventKind::kFaultPlan);
        break;
      }
      case SimEventKind::kRound:
        event_counts_.Note(SimEventKind::kRound);
        --pending_rounds_;
        HandleRoundEvent(now_s_);
        break;
    }
  }
  SyncRunMetrics();
}

}  // namespace optimus
