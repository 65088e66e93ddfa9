// Simulation outcome metrics (§6.1 "Metrics").
//
// Average job completion time (JCT) measures system performance; makespan
// (first arrival to last completion) measures resource efficiency. The
// timeline records the running-task count and normalized CPU utilization per
// scheduling interval (Fig 14), and scaling overhead tracks the share of time
// lost to checkpoint-based resource adjustments (§6.2).

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <vector>

namespace optimus {

struct TimelinePoint {
  double time_s = 0.0;
  int running_tasks = 0;
  // Mean normalized CPU utilization across running tasks, in percent.
  double worker_cpu_util_pct = 0.0;
  double ps_cpu_util_pct = 0.0;
};

struct RunMetrics {
  int total_jobs = 0;
  int completed_jobs = 0;
  // Jobs cancelled by an online kill request (service mode). Kills count in
  // completed_jobs too — the accounting invariants check completed states
  // against that metric — but not in the JCT histogram (no convergence).
  int64_t jobs_killed = 0;
  std::vector<double> jcts;
  double avg_jct_s = 0.0;
  double makespan_s = 0.0;
  // Mean over jobs of (scaling stall time / JCT).
  double scaling_overhead_fraction = 0.0;
  int64_t straggler_replacements = 0;
  int64_t total_scalings = 0;
  // Fault-injection accounting (src/sim/fault_injector.h).
  int64_t server_crashes = 0;
  int64_t server_recoveries = 0;
  int64_t task_failures = 0;
  int64_t job_evictions = 0;
  int64_t backoff_deferrals = 0;
  int64_t checkpoints_taken = 0;
  double rolled_back_steps = 0.0;
  // Invariant-auditor results (both 0 when auditing is disabled).
  int64_t audit_checks = 0;
  int64_t audit_violations = 0;
  // Host wall-clock seconds per simulator phase over the whole run, mirrored
  // from the simulator's PhaseProfiler (src/obs/phase_profiler.h). Profiling
  // only: nondeterministic, so excluded from golden snapshots and determinism
  // comparisons; the registry exports the same totals as profiling gauges
  // named optimus_wall_<phase>_seconds.
  double wall_faults_s = 0.0;
  double wall_schedule_s = 0.0;
  double wall_advance_s = 0.0;
  double wall_audit_s = 0.0;
  // Event-kernel accounting (engine = events only; 0 under the interval
  // engine). events_processed counts handled arrivals, fault-plan edges and
  // rounds plus walked epoch boundaries; clock markers are not counted.
  // wall_events_s is the event-kernel dispatch/advance phase (profiling only,
  // like wall_* above).
  int64_t events_processed = 0;
  double wall_events_s = 0.0;
  std::vector<TimelinePoint> timeline;
};

}  // namespace optimus

#endif  // SRC_SIM_METRICS_H_
