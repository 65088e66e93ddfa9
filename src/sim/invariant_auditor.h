// Always-on invariant auditing for the cluster simulator.
//
// A production scheduler must never silently corrupt cluster state; the
// auditor is the simulator-side analogue of that guarantee. Once per
// scheduling interval it checks the cluster state (per-server load from job
// placements, job-state census, progress deltas):
//   capacity    — per-server placed load fits within the server's capacity,
//                 free resources stay non-negative, placement vectors are
//                 sized to the server list, and per-job placement totals
//                 match the job's allocation
//   dead-server — no running job has a task on an unavailable server
//   progress    — job epoch progress is monotone non-decreasing, except
//                 across an announced checkpoint rollback
//   accounting  — completed + running + paused + pending == jobs submitted,
//                 and the metrics completion counter agrees
//   state       — non-running jobs hold no allocation; task counts and
//                 progress are non-negative
//
// Two check modes share the same invariants:
//   Check()            re-derives everything from the passed-in views from
//                      first principles — O(jobs * servers) per call.
//   CheckIncremental() reads a placement tracker maintained by delta updates
//                      (SetPlacement / ClearPlacement at placement, eviction
//                      and completion time) — O(changed) per call. The
//                      simulator runs this most intervals and falls back to
//                      the full re-derivation periodically, pairing it with
//                      CheckTrackerAgainstViews() so any drift between the
//                      tracker and the true state is itself a violation.
//
// The tracker is flat and reused across rounds: a hash map of tracked jobs
// whose task buffers are overwritten on re-placement, one job-id-sorted entry
// vector per server, an occupancy bitmap, and a dirty flag per server plus a
// list of the flagged ones. Re-placing a job onto servers that have hosted tasks before allocates
// nothing. Both check modes report violations in ascending (server, job id)
// order.
//
// Violations are collected with timestamps; the simulator reports them
// loudly at the end of the run (fatally when audit_fatal is set). The checks
// are pure over the passed-in views, so tests can feed deliberately corrupted
// snapshots and assert the auditor rejects them.

#ifndef SRC_SIM_INVARIANT_AUDITOR_H_
#define SRC_SIM_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cluster/job.h"
#include "src/cluster/server.h"
#include "src/obs/flight_recorder.h"
#include "src/pserver/comm_model.h"

namespace optimus {

struct AuditViolation {
  double time_s = 0.0;
  std::string invariant;  // short id: capacity, dead-server, progress, ...
  std::string detail;
};

class InvariantAuditor {
 public:
  // The auditor's read-only view of one job at check time.
  struct JobView {
    int job_id = 0;
    JobState state = JobState::kPending;
    double steps_done = 0.0;
    int num_ps = 0;
    int num_workers = 0;
    Resources ps_demand;
    Resources worker_demand;
    const JobPlacement* placement = nullptr;  // may be null or empty
    // All-reduce jobs legitimately run with zero PS tasks; the running-state
    // allocation check is comm-aware.
    CommMode comm = CommMode::kParameterServer;
  };

  // Job-state census at check time, as the metrics layer counts it.
  struct Counts {
    int submitted = 0;  // jobs that have arrived so far
    int completed_metric = 0;  // RunMetrics::completed_jobs
    // Completed jobs whose runtime records were retired (freed) after
    // completion; they no longer appear in the job views, so the accounting
    // identities count them explicitly: census.completed + retired must equal
    // completed_metric, and the submitted identity includes them.
    int retired = 0;
  };

  // Announces that `job_id`'s progress was legitimately rolled back to a
  // checkpoint since the last Check (crash eviction or task failure); the
  // next Check allows a progress decrease for it, once.
  void NoteRollback(int job_id);

  // Announces that `job_id`'s runtime record was retired after completion:
  // its progress history is dropped so the per-job
  // maps track only live jobs. The job must already have left the placement
  // tracker (completion cleared it).
  void NoteRetired(int job_id);

  // Runs all invariant checks against the snapshot, re-deriving per-server
  // load from scratch. Appends violations.
  void Check(double now_s, const std::vector<Server>& servers,
             const std::vector<JobView>& jobs, const Counts& counts);

  // --- Incremental mode ----------------------------------------------------

  // Sizes the per-server tracker; must be called before SetPlacement.
  void SetClusterSize(size_t n_servers);

  // Delta updates to the placement tracker. SetPlacement replaces job_id's
  // tracked contribution with `placement` (recording the demands so per-server
  // load can be re-derived lazily); ClearPlacement removes it (eviction,
  // pause, completion). Both are O(tasks of the job).
  void SetPlacement(int job_id, const Resources& worker_demand,
                    const Resources& ps_demand, const JobPlacement& placement);
  void ClearPlacement(int job_id);

  // Same invariants as Check(), but per-server load comes from the tracker:
  // only servers whose occupancy changed since the last check are re-summed,
  // so the cost is O(jobs + changed-servers) instead of O(jobs * servers).
  void CheckIncremental(double now_s, const std::vector<Server>& servers,
                        const std::vector<JobView>& jobs, const Counts& counts);

  // Cross-checks the tracker against the ground-truth views: every running
  // job's placement must match its tracked contribution exactly, and the
  // tracker must hold nothing else. Divergence is reported as an
  // "audit-divergence" violation. Does not count as a check (checks_run()
  // is unchanged) — the simulator runs it alongside the periodic full
  // Check() to prove the incremental path never drifted.
  void CheckTrackerAgainstViews(double now_s, const std::vector<JobView>& jobs);

  bool ok() const { return violations_.empty(); }
  const std::vector<AuditViolation>& violations() const { return violations_; }
  int64_t checks_run() const { return checks_run_; }

  // When set, every reported violation is also recorded into the flight
  // recorder (kind kAuditViolation, detail "invariant: detail"), so the
  // post-mortem dump carries the violations interleaved with the allocation
  // and fault events that led up to them. The recorder must outlive the
  // auditor's checks.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

  // Human-readable digest of up to `max_items` violations.
  std::string Summary(size_t max_items = 5) const;

 private:
  struct Census {
    int running = 0;
    int paused = 0;
    int pending = 0;
    int completed = 0;
  };

  // One tracked (server, workers, ps) contribution of a job.
  struct TrackedTask {
    int server = 0;
    int workers = 0;
    int ps = 0;
  };
  // A tracked job. Re-placing it overwrites `tasks` in place, so a job whose
  // new placement spans no more servers than before allocates nothing.
  struct TrackedJob {
    std::vector<TrackedTask> tasks;  // ascending server order
    Resources worker_demand;
    Resources ps_demand;
    int num_workers = 0;
    int num_ps = 0;
  };
  // One job's (workers, ps) on a server.
  struct ServerEntry {
    int job_id = 0;
    int workers = 0;
    int ps = 0;
  };

  void Report(double now_s, const char* invariant, std::string detail);
  // Per-job scalar invariants shared by both check modes: state sanity,
  // progress monotonicity (consuming rollback_ok_ at the end), and the
  // accounting identities. Returns the state census.
  Census CheckJobScalars(double now_s, const std::vector<JobView>& jobs);
  void CheckAccounting(double now_s, const Census& census, const Counts& counts);
  Resources DeriveServerLoad(size_t s) const;
  // Removes `job_id`'s entries from the lists of the servers its `tracked`
  // tasks occupy and marks those servers dirty.
  void RemoveFromServers(int job_id, const TrackedJob& tracked);
  void MarkDirty(int server);
  void SetOccupied(size_t server, bool occupied);

  std::unordered_map<int, double> last_steps_;
  std::unordered_set<int> rollback_ok_;
  std::vector<AuditViolation> violations_;
  int64_t checks_run_ = 0;
  FlightRecorder* flight_ = nullptr;

  // Incremental tracker state, all reused across rounds.
  std::unordered_map<int, TrackedJob> tracked_;
  // Per server: the jobs with tasks on it, sorted by job id, so a re-derived
  // load sums in job-id order and is deterministic.
  std::vector<std::vector<ServerEntry>> server_jobs_;
  // Bit s is set exactly when server s's list is non-empty; the dead-server
  // pass walks the set bits in ascending order, so it costs O(servers / 64 +
  // occupied) instead of a scan of every server.
  std::vector<uint64_t> occupied_;
  // Servers whose occupancy changed since the last check: a flag per server
  // plus the list of flagged servers, sorted before the check reads it.
  std::vector<uint8_t> dirty_;
  std::vector<int> dirty_list_;
};

}  // namespace optimus

#endif  // SRC_SIM_INVARIANT_AUDITOR_H_
