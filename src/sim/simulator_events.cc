// Event-engine run loop (SimEngine::kEvents); see src/sim/event_kernel.h for
// the kernel design and docs/ALGORITHMS.md §16 for the determinism argument
// and the parity contract against the interval engine.
//
// Structure: simulated activity is a deterministic event queue. Scheduling
// rounds stay periodic (one kRound per interval, Algorithm-1 cadence) and
// reuse the interval engine's fault pipeline, scheduler round, and auditor
// verbatim; between rounds each job advances only at its own analytically
// computed epoch-completion events, so untouched jobs cost zero work. Events
// pop one at a time in key order and their handlers run serially; every RNG
// draw flows through job-owned streams, keeping outputs bitwise identical for
// any --threads. The per-job observation steps (epoch loss, loss and speed
// samples, fits, utilization) are the interval engine's, shared through the
// Simulator helpers AdvanceJob calls.

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/sim/simulator.h"

namespace optimus {

namespace {

// Loss samples observed per completed epoch. The interval engine's
// per-interval sample count is a polling-rate artifact; this engine observes
// at the natural epoch granularity. Sub-epoch losses are strongly correlated,
// so a couple per epoch keeps the fit quality while decoupling feeding cost
// from the polling rate (fit cost per refresh is linear in the sample count).
constexpr int kConvSamplesPerEpoch = 2;

}  // namespace

void Simulator::SeedEvents() {
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
    events_.push({t, SimEventKind::kFaultPlan, -1, 0});
  }
  events_.push({0.0, SimEventKind::kRound, -1, 0});
  round_queued_ = true;
  QueueNextArrival();
}

void Simulator::QueueNextArrival() {
  const double t = NextArrival();
  if (t < queued_arrival_s_) {
    events_.push({t, SimEventKind::kArrival, -1, 0});
    queued_arrival_s_ = t;
  }
}

void Simulator::HandleArrivalEvent(double t) {
  // One arrival event is live at a time. A submission arriving earlier than
  // the queued one supersedes it; the superseded event pops at a time other
  // than the live one's and is dropped.
  if (t != queued_arrival_s_) {
    return;
  }
  queued_arrival_s_ = std::numeric_limits<double>::infinity();
  ActivateArrivals();
  event_counts_.Note(SimEventKind::kArrival);
  if (!round_queued_) {
    // The chain stopped at an idle round: resume at the first boundary at or
    // after this arrival.
    events_.push({NextRoundAtOrAfter(last_round_s_, t), SimEventKind::kRound, -1, 0});
    round_queued_ = true;
  }
  QueueNextArrival();
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
    ResetEvictionStreak(jr);
    jr->ran_since_round = true;
  }
  jr->seg_anchor_s = t;
}

void Simulator::HandleEpochEvent(const SimKernelEvent& event) {
  // Stale filter: an event whose generation no longer matches was superseded
  // by a reschedule, an eviction, or completion. A retired job has no
  // runtime; any epoch event it left behind is stale by definition
  // (retirement requires completion, which bumped the gen).
  const auto it = job_refs_.find(static_cast<int>(event.job_id));
  OPTIMUS_CHECK(it != job_refs_.end());
  JobRuntime* jr = it->second.live;
  if (jr == nullptr || !jr->seg_active || jr->gen != event.gen) {
    return;
  }
  event_counts_.Note(SimEventKind::kEpoch);

  const double t = event.time_s;
  Job& job = jr->job;
  const double spe = static_cast<double>(job.spec().StepsPerEpoch());
  const int64_t e = jr->seg_next_epoch;

  // Settle to the boundary. The event time was computed as
  // anchor + stall + (boundary - steps) / speed, so the stall is consumed en
  // route and the advance lands exactly on the boundary (forced, to keep the
  // boundary arithmetic free of accumulated rounding).
  const double dt = t - jr->seg_anchor_s;
  if (dt > 0.0) {
    job.ConsumeStall(dt);
  }
  job.AdvanceSteps(std::max(0.0, static_cast<double>(e) * spe - job.steps_done()));
  jr->seg_anchor_s = t;
  ResetEvictionStreak(jr);
  jr->ran_since_round = true;

  const bool completed = ObserveEpochLoss(jr, e);
  if (!config_.oracle_estimates) {
    // Observe per-step losses across the completed epoch. Feeding is the hot
    // path of the interval engine's advance; here it is a handful of samples
    // per epoch and the fits are deferred to the round's model refresh.
    FeedLossSamples(jr, static_cast<double>(e - 1) * spe,
                    static_cast<double>(e) * spe, kConvSamplesPerEpoch);
  }
  const bool lr_drop = ApplyLrDrop(jr);

  if (completed) {
    // Exact analytic completion time — no interval-boundary quantization.
    job.MarkCompleted(t);
    jr->seg_active = false;
    ++jr->gen;
    CompleteJob(jr, e);
  }
  if (lr_drop) {
    Emit(t, SimEventType::kLearningRateDrop, job.id(), job.num_ps(),
         job.num_workers());
  }
  if (!completed) {
    jr->seg_next_epoch = e + 1;
    // The boundary was landed on exactly, so a whole epoch lies ahead.
    events_.push({t + job.stall_remaining_s() + spe / jr->seg_speed,
                  SimEventKind::kEpoch, job.id(), jr->gen});
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
        events_.push({NextEpochTime(*jr, t), SimEventKind::kEpoch, jr->job.id(),
                      jr->gen});
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
    const SpeedSample& sample = jr->seg_sample;
    jr->speed->AddSample(sample.num_ps, sample.num_workers, sample.speed);
    if (jr->job.state() != JobState::kCompleted) {
      FitModels(jr);
    }
  };
  pool_->ParallelFor(static_cast<int64_t>(dirty.size()),
                     [&](int64_t i) { refresh(dirty[i]); });
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
  // fresh placement, the speed sample the span will feed, and the
  // utilization snapshot the timeline records.
  auto build = [&](int64_t i) {
    JobRuntime* jr = running[i];
    jr->seg_noise = jr->rng.LogNormalFactor(config_.runtime_noise_sd);
    const double speed = TrueSpeed(*jr) * jr->seg_noise * cluster_slow_factor_;
    SnapshotUtilization(jr);
    if (speed <= 0.0) {
      return;
    }
    jr->seg_active = true;
    jr->seg_anchor_s = t;
    jr->seg_speed = speed;
    const double spe = static_cast<double>(jr->job.spec().StepsPerEpoch());
    jr->seg_next_epoch = static_cast<int64_t>(jr->job.steps_done() / spe) + 1;
    if (!config_.oracle_estimates) {
      jr->seg_sample = SpeedSampleAt(*jr, speed);
    }
  };
  pool_->ParallelFor(static_cast<int64_t>(running.size()), build);
  // Serial pushes in job order keep the heap contents deterministic.
  std::erase_if(running, [](const JobRuntime* jr) { return !jr->seg_active; });
  for (JobRuntime* jr : running) {
    events_.push({NextEpochTime(*jr, t), SimEventKind::kEpoch, jr->job.id(),
                  jr->gen});
  }
  // Timeline sample for the upcoming span (the interval engine records the
  // same tuple at each boundary).
  RecordTimeline(t + config_.interval_s, running);
}

void Simulator::HandleRoundEvent(double t) {
  last_round_s_ = t;
  round_queued_ = false;
  // Idle, mirroring the interval engine's fast-forward: with no live,
  // incomplete job the chain stops here, without fault/schedule/audit work,
  // and the next arrival restarts it (HandleArrivalEvent).
  if (!AnyIncompleteLive()) {
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

  events_.push({t + config_.interval_s, SimEventKind::kRound, -1, 0});
  round_queued_ = true;
}

void Simulator::StepEventsUntil(double horizon) {
  OPTIMUS_CHECK(config_.engine == SimEngine::kEvents);
  while (metrics_.completed_jobs < metrics_.total_jobs && !events_.empty() &&
         events_.top().time_s <= horizon &&
         events_.top().time_s < config_.max_sim_time_s) {
    const SimKernelEvent event = events_.top();
    events_.pop();
    now_s_ = event.time_s;
    switch (event.kind) {
      case SimEventKind::kArrival: {
        ScopedTimer timer(&profiler_, phase_events_);
        HandleArrivalEvent(now_s_);
        break;
      }
      case SimEventKind::kEpoch: {
        ScopedTimer timer(&profiler_, phase_events_);
        HandleEpochEvent(event);
        break;
      }
      case SimEventKind::kFaultPlan: {
        ScopedTimer timer(&profiler_, phase_faults_);
        HandleFaultPlanEvent(now_s_);
        event_counts_.Note(SimEventKind::kFaultPlan);
        break;
      }
      case SimEventKind::kRound:
        event_counts_.Note(SimEventKind::kRound);
        HandleRoundEvent(now_s_);
        break;
    }
  }
  SyncRunMetrics();
}

}  // namespace optimus
