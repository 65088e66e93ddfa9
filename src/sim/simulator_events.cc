// Event-engine run loop (SimEngine::kEvents); docs/ALGORITHMS.md §16 has the
// design, the determinism argument and the parity contract against the
// interval engine.
//
// Scheduling rounds stay periodic (one per interval, Algorithm-1 cadence) and
// reuse the interval engine's fault pipeline, scheduler round, and auditor
// verbatim. Between two barriers (the queued round, the next fault-plan edge,
// the horizon) each running job walks its own analytically computed epoch
// boundaries (WalkEpochs), fanned out over the pool, touching only its own
// state; the caller then applies the walks' shared effects (completions,
// lr-drop records) serially, in time order with the queued items. There is
// no event queue: each queued item lives once, in the state that owns it, and
// NextQueued() picks the earliest. Every RNG draw flows through job-owned
// streams, keeping outputs bitwise identical for any --threads. The per-job
// observation steps (epoch loss, loss and speed samples, fits, utilization)
// are the interval engine's, shared through the Simulator helpers AdvanceJob
// calls.

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

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

std::pair<double, Simulator::EventKind> Simulator::NextQueued() const {
  std::pair<double, EventKind> next{queued_arrival_s_, kArrivalEvent};
  // Strictly earlier only: at equal times the lower kind, checked first, wins.
  auto consider = [&next](double t, EventKind kind) {
    if (t < next.first) {
      next = {t, kind};
    }
  };
  consider(markers_.top(), kEpochEvent);
  consider(fault_edges_s_[next_edge_], kFaultPlanEvent);
  consider(queued_round_s_, kRoundEvent);
  return next;
}

void Simulator::QueueNextArrival() {
  const double t = jobs_.NextArrival();
  if (t < queued_arrival_s_) {
    if (std::isfinite(queued_arrival_s_)) {
      markers_.push(queued_arrival_s_);
    }
    queued_arrival_s_ = t;
  }
}

void Simulator::HandleArrivalEvent(double t) {
  queued_arrival_s_ = std::numeric_limits<double>::infinity();
  ActivateArrivals();
  if (std::isinf(queued_round_s_)) {
    // The chain stopped at an idle round: resume at the first boundary at or
    // after this arrival.
    queued_round_s_ = NextRoundAtOrAfter(last_round_s_, t);
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
    // No epoch boundary lies inside (anchor, t) — the walk stops at every
    // boundary — so cap the advance at the next boundary to keep
    // floating-point drift from overshooting an unobserved epoch.
    const double spe = static_cast<double>(jr->job.spec().StepsPerEpoch());
    const double cap = std::max(
        0.0, static_cast<double>(jr->seg_next_epoch) * spe - jr->job.steps_done());
    jr->job.AdvanceSteps(std::min(train * jr->seg_speed, cap));
    ResetEvictionStreak(jr);
    jr->ran_since_round = true;
  }
  jr->seg_anchor_s = t;
}

void Simulator::WalkEpochs(JobRuntime* jr, double barrier) {
  JobRuntime::EpochWalk& walk = jr->walk;
  walk = {};
  Job& job = jr->job;
  const double spe = static_cast<double>(job.spec().StepsPerEpoch());
  while (jr->seg_active && jr->seg_next_s <= barrier &&
         jr->seg_next_s < config_.max_sim_time_s) {
    const double t = jr->seg_next_s;
    const int64_t e = jr->seg_next_epoch;

    // Settle to the boundary. Its time was computed as
    // anchor + stall + (boundary - steps) / speed, so the stall is consumed
    // en route and the advance lands exactly on the boundary (forced, to keep
    // the boundary arithmetic free of accumulated rounding).
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
      // Observe per-step losses across the completed epoch. Feeding is the
      // hot path of the interval engine's advance; here it is a handful of
      // samples per epoch and the fits are deferred to the round's model
      // refresh.
      FeedLossSamples(jr, static_cast<double>(e - 1) * spe,
                      static_cast<double>(e) * spe, kConvSamplesPerEpoch);
    }
    if (ApplyLrDrop(jr)) {
      walk.lr_drop = true;
      walk.lr_drop_s = t;
    }
    ++walk.epochs;
    walk.last_s = t;
    if (completed) {
      // Exact analytic completion time — no interval-boundary quantization.
      job.MarkCompleted(t);
      jr->seg_active = false;
      walk.completed_epoch = e;
    } else {
      jr->seg_next_epoch = e + 1;
      // The boundary was landed on exactly, so a whole epoch lies ahead.
      jr->seg_next_s = t + job.stall_remaining_s() + spe / jr->seg_speed;
    }
  }
}

double Simulator::WalkSegments(double barrier) {
  pool_->ParallelFor(static_cast<int64_t>(segments_.size()),
                     [&](int64_t i) { WalkEpochs(segments_[i], barrier); });
  walk_effects_.clear();
  int64_t epochs = 0;
  double last_s = -std::numeric_limits<double>::infinity();
  for (JobRuntime* jr : segments_) {
    const JobRuntime::EpochWalk& walk = jr->walk;
    if (walk.epochs == 0) {
      continue;
    }
    epochs += walk.epochs;
    last_s = std::max(last_s, walk.last_s);
    if (walk.completed_epoch > 0) {
      walk_effects_.push_back({jr->job.completion_time_s(), jr, true});
    }
    if (walk.lr_drop) {
      walk_effects_.push_back({walk.lr_drop_s, jr, false});
    }
  }
  event_counts_[kEpochEvent] += epochs;
  // Merge order: time, then job id, and a completion before the lr-drop
  // record of the same boundary.
  auto key = [](const WalkEffect& w) {
    return std::tuple(w.time_s, w.jr->job.id(), !w.completion);
  };
  std::sort(walk_effects_.begin(), walk_effects_.end(),
            [&key](const WalkEffect& a, const WalkEffect& b) { return key(a) < key(b); });
  return last_s;
}

void Simulator::EndSegment(JobRuntime* jr) {
  if (jr->seg_active) {
    markers_.push(jr->seg_next_s);
    jr->seg_active = false;
  }
}

void Simulator::HandleFaultPlanEvent(double t) {
  // Evictions happen at the exact crash instant: a job that loses tasks
  // mid-round stops training then, not at the next boundary (EvictJob
  // ends the job's segment).
  bool slow_changed = false;
  const bool evicted_any = ApplyServerEdges(&slow_changed);

  // Evicted jobs released their flows: re-solve the fabric so survivors run
  // at the freed-link bandwidths from the crash instant onward, re-anchoring
  // their segments exactly like a slowdown edge. No-op under the flat model.
  const bool bw_changed = evicted_any && RefreshNetwork();

  // A slowdown edge changes every active segment's speed: settle each at the
  // old speed up to t, recompute with the same round noise draw, and move its
  // next boundary (the old one leaves a clock marker).
  if (slow_changed || bw_changed) {
    for (JobRuntime* jr : segments_) {
      if (!jr->seg_active) {
        continue;
      }
      SettleJob(jr, t);
      EndSegment(jr);
      jr->seg_speed = TrueSpeed(*jr) * jr->seg_noise * cluster_slow_factor_;
      jr->seg_active = jr->seg_speed > 0.0;
      if (jr->seg_active) {
        jr->seg_next_s = NextEpochTime(*jr, t);
      }
    }
  }
}

void Simulator::RefreshModels() {
  jobs_.MarkTotalsStale();
  if (config_.oracle_estimates) {
    for (const auto& jr : jobs_.Live()) {
      jr->ran_since_round = false;
    }
    return;
  }
  std::vector<JobRuntime*> dirty;
  for (const auto& jr : jobs_.Live()) {
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
    jr->speed->AddSample(jr->seg_sample);
    if (jr->job.state() != JobState::kCompleted) {
      FitModels(jr);
    }
  };
  pool_->ParallelFor(static_cast<int64_t>(dirty.size()),
                     [&](int64_t i) { refresh(dirty[i]); });
}

void Simulator::RebuildSegments() {
  const double t = now_s_;
  // Every pending boundary is superseded here (a clock marker each); running
  // jobs get a fresh segment — new noise draw, current
  // allocation/placement/slowdown — and one next boundary each.
  std::vector<JobRuntime*>& running = segments_;
  running.clear();
  for (const auto& jr : jobs_.Live()) {
    if (jr->job.state() == JobState::kCompleted) {
      continue;
    }
    EndSegment(jr.get());
    // All-reduce jobs run with zero PS tasks; workers alone make them live.
    const bool needs_ps = jr->job.spec().comm != CommMode::kAllReduce;
    if (jr->job.state() == JobState::kRunning && jr->job.num_workers() > 0 &&
        (!needs_ps || jr->job.num_ps() > 0)) {
      running.push_back(jr.get());
    }
  }

  // Per-job segment math: one noise draw from the job's own stream (the
  // interval engine's per-interval cadence), ground-truth speed at the fresh
  // placement, the speed sample the span will feed, and the utilization
  // snapshot the timeline records.
  for (JobRuntime* jr : running) {
    jr->seg_noise = jr->rng.LogNormalFactor(config_.runtime_noise_sd);
    const double speed = TrueSpeed(*jr) * jr->seg_noise * cluster_slow_factor_;
    SnapshotUtilization(jr);
    if (speed <= 0.0) {
      continue;
    }
    jr->seg_active = true;
    jr->seg_anchor_s = t;
    jr->seg_speed = speed;
    const double spe = static_cast<double>(jr->job.spec().StepsPerEpoch());
    jr->seg_next_epoch = static_cast<int64_t>(jr->job.steps_done() / spe) + 1;
    if (!config_.oracle_estimates) {
      jr->seg_sample = SpeedSampleAt(*jr, speed);
    }
    jr->seg_next_s = NextEpochTime(*jr, t);
  }
  std::erase_if(running, [](const JobRuntime* jr) { return !jr->seg_active; });
  // Timeline sample for the upcoming span (the interval engine records the
  // same tuple at each boundary).
  RecordTimeline(t + config_.interval_s, running);
}

void Simulator::HandleRoundEvent(double t) {
  last_round_s_ = t;
  queued_round_s_ = std::numeric_limits<double>::infinity();
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
    for (JobRuntime* jr : segments_) {
      if (jr->seg_active) {
        SettleJob(jr, t);
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
  // a completed job). Retiring frees runtimes the segment list may name; it
  // is rebuilt below.
  segments_.clear();
  jobs_.RetireCompleted(&auditor_);

  // The shared policy path, verbatim: fault pipeline (periodic checkpoints,
  // stochastic task failures, eviction scan — scripted edges were already
  // applied at their exact times), scheduling round, invariant audit.
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

  queued_round_s_ = t + config_.interval_s;
}

void Simulator::StepEventsUntil(double horizon) {
  OPTIMUS_CHECK(config_.engine == SimEngine::kEvents);
  auto due = [&](double t) { return t <= horizon && t < config_.max_sim_time_s; };
  bool more = true;
  while (more && metrics_.completed_jobs < metrics_.total_jobs) {
    // The span ends at the first barrier: the queued round, the next
    // fault-plan edge, or the horizon. Only those change another job's
    // segment, so every job walks its boundaries up to it on its own.
    const double barrier = std::min({horizon, queued_round_s_, fault_edges_s_[next_edge_]});
    double walked_s = 0.0;
    {
      ScopedTimer timer(&profiler_, phase_events_);
      walked_s = WalkSegments(barrier);
    }
    // Merge the walks' effects with the queued items up to the barrier, in
    // time order. A boundary goes after an arrival at its instant and before
    // an edge or round; a clock marker at its instant may go either side, as
    // it only moves now_s_ to a time the merge reaches anyway. Once every job
    // completed no queued item comes due, but the last boundary's lr-drop
    // record still lands.
    more = false;
    size_t effect = 0;
    while (true) {
      const auto [next_s, kind] = NextQueued();
      const bool next_due = metrics_.completed_jobs < metrics_.total_jobs && due(next_s);
      if (effect < walk_effects_.size()) {
        const WalkEffect& w = walk_effects_[effect];
        if (!next_due || w.time_s < next_s || (w.time_s == next_s && kind != kArrivalEvent)) {
          ScopedTimer timer(&profiler_, phase_events_);
          Job& job = w.jr->job;
          if (w.completion) {
            CompleteJob(w.jr, w.jr->walk.completed_epoch);
          } else {
            Emit(w.time_s, SimEventType::kLearningRateDrop, job.id(), job.num_ps(),
                 job.num_workers());
          }
          ++effect;
          continue;
        }
      }
      if (!next_due) {
        break;
      }
      now_s_ = next_s;
      if (kind == kEpochEvent) {
        markers_.pop();  // a clock marker: it only moves now_s_
        continue;
      }
      ++event_counts_[kind];
      if (kind == kArrivalEvent) {
        ScopedTimer timer(&profiler_, phase_events_);
        HandleArrivalEvent(now_s_);
        continue;
      }
      if (kind == kFaultPlanEvent) {
        ScopedTimer timer(&profiler_, phase_faults_);
        ++next_edge_;
        HandleFaultPlanEvent(now_s_);
      } else {
        HandleRoundEvent(now_s_);
      }
      more = true;  // past a barrier: walk the next span
      break;
    }
    // Every walked boundary lies before the barrier, so all were merged.
    OPTIMUS_CHECK_EQ(effect, walk_effects_.size());
    now_s_ = std::max(now_s_, walked_s);
  }
  SyncRunMetrics();
}

}  // namespace optimus
