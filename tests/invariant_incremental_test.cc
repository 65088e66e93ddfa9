// Incremental-auditor tests: the O(changed) check must enforce the same
// invariants as the full re-derivation, the tracker cross-check must catch
// corrupted incremental state that the cheap path cannot see, and switching
// audit modes must never perturb the simulation itself.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/fault_injector.h"
#include "src/sim/invariant_auditor.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace optimus {
namespace {

struct Fixture {
  std::vector<Server> servers;
  JobPlacement placement;
  InvariantAuditor::JobView view;
  InvariantAuditor::Counts counts;

  Fixture() {
    servers.push_back(Server(0, Resources(16, 64, 0, 1)));
    servers.push_back(Server(1, Resources(16, 64, 0, 1)));
    placement = {.used_servers = {0}, .used_workers = {2}, .used_ps = {1}};
    view.job_id = 0;
    view.state = JobState::kRunning;
    view.steps_done = 10.0;
    view.num_ps = 1;
    view.num_workers = 2;
    view.worker_demand = Resources(2.5, 10, 0, 0.15);
    view.ps_demand = Resources(2.5, 10, 0, 0.15);
    view.placement = &placement;
    counts.submitted = 1;
    counts.completed_metric = 0;
  }

  // Registers the fixture's job with the tracker, as the simulator does at
  // decision-application time.
  void Track(InvariantAuditor* auditor) const {
    auditor->SetClusterSize(servers.size());
    auditor->SetPlacement(view.job_id, view.worker_demand, view.ps_demand,
                          placement);
  }
};

TEST(IncrementalAuditorTest, ConsistentStatePassesBothModes) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.CheckIncremental(600.0, f.servers, {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.checks_run(), 1);
  // Periodic full pass with tracker cross-check: still clean, and the
  // cross-check does not count as an extra check.
  auditor.Check(1200.0, f.servers, {f.view}, f.counts);
  auditor.CheckTrackerAgainstViews(1200.0, {f.view});
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.checks_run(), 2);
}

TEST(IncrementalAuditorTest, CatchesDeadServerIncrementally) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  f.servers[0].SetAvailable(false);
  auditor.CheckIncremental(600.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "dead-server");
}

TEST(IncrementalAuditorTest, CatchesOvercommitIncrementally) {
  Fixture f;
  // 8 workers at 10 GB each overflow the server's 64 GB.
  f.placement.used_workers = {8};
  f.view.num_workers = 8;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.CheckIncremental(600.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "capacity");
}

TEST(IncrementalAuditorTest, CatchesAllocationTotalsMismatchIncrementally) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  f.view.num_workers = 3;  // allocation says 3, tracked placement holds 2
  auditor.CheckIncremental(600.0, f.servers, {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "capacity");
}

TEST(IncrementalAuditorTest, OnlyDirtyServersAreRecheckedForCapacity) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.CheckIncremental(600.0, f.servers, {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  // No occupancy change since the last check: a second incremental pass is
  // clean too (and exercises the empty-dirty-set path).
  auditor.CheckIncremental(1200.0, f.servers, {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.checks_run(), 2);
}

TEST(IncrementalAuditorTest, FullCrossCheckCatchesCorruptedTracker) {
  Fixture f;
  InvariantAuditor auditor;
  auditor.SetClusterSize(f.servers.size());
  // Corrupt the incremental state: track a placement with the same totals as
  // the truth but different servers. The cheap incremental check only
  // compares totals, so it passes...
  const JobPlacement corrupted = {
      .used_servers = {0, 1}, .used_workers = {1, 1}, .used_ps = {0, 1}};
  auditor.SetPlacement(f.view.job_id, f.view.worker_demand, f.view.ps_demand,
                       corrupted);
  auditor.CheckIncremental(600.0, f.servers, {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  // ...which is exactly why the periodic full re-derivation cross-checks the
  // tracker against the true views and flags the drift.
  auditor.CheckTrackerAgainstViews(1200.0, {f.view});
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "audit-divergence");
}

TEST(IncrementalAuditorTest, CrossCheckCatchesStaleTrackerEntry) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  // The job pauses and releases everything, but the tracker is (wrongly) not
  // cleared — the cross-check must notice the stale contribution.
  f.view.state = JobState::kPaused;
  f.view.num_ps = 0;
  f.view.num_workers = 0;
  f.view.placement = nullptr;
  auditor.CheckTrackerAgainstViews(600.0, {f.view});
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "audit-divergence");
}

TEST(IncrementalAuditorTest, ClearPlacementRemovesContribution) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.ClearPlacement(f.view.job_id);
  f.view.state = JobState::kPaused;
  f.view.num_ps = 0;
  f.view.num_workers = 0;
  f.view.placement = nullptr;
  auditor.CheckIncremental(600.0, f.servers, {f.view}, f.counts);
  auditor.CheckTrackerAgainstViews(600.0, {f.view});
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
}

// Three jobs tracked in descending id order on two crashed servers, plus an
// overcommitted live server: the incremental check must report exactly what
// the full re-derivation reports, in the same ascending (server, job id)
// order.
TEST(IncrementalAuditorTest, ModesReportViolationsInTheSameOrder) {
  std::vector<Server> servers;
  for (int s = 0; s < 4; ++s) {
    servers.push_back(Server(s, Resources(16, 64, 0, 1)));
  }
  const Resources demand(2.5, 10, 0, 0.15);
  // Server 1 hosts jobs 3 and 5, server 2 hosts job 7; job 7 also overloads
  // server 3 with 7 workers (70 GB on a 64 GB server).
  std::vector<JobPlacement> placements = {
      {.used_servers = {1}, .used_workers = {1}, .used_ps = {1}},
      {.used_servers = {1}, .used_workers = {2}, .used_ps = {1}},
      {.used_servers = {2, 3}, .used_workers = {1, 7}, .used_ps = {1, 0}},
  };
  const int ids[] = {3, 5, 7};
  std::vector<InvariantAuditor::JobView> views;
  for (size_t j = 0; j < 3; ++j) {
    InvariantAuditor::JobView view;
    view.job_id = ids[j];
    view.state = JobState::kRunning;
    view.steps_done = 1.0;
    view.worker_demand = demand;
    view.ps_demand = demand;
    view.placement = &placements[j];
    placements[j].ForEachUsed([&](size_t, int w, int p) {
      view.num_workers += w;
      view.num_ps += p;
    });
    views.push_back(view);
  }
  InvariantAuditor::Counts counts;
  counts.submitted = 3;

  InvariantAuditor incremental;
  incremental.SetClusterSize(servers.size());
  for (size_t j = 3; j-- > 0;) {
    incremental.SetPlacement(ids[j], demand, demand, placements[j]);
  }
  servers[1].SetAvailable(false);
  servers[2].SetAvailable(false);
  incremental.CheckIncremental(600.0, servers, views, counts);
  InvariantAuditor full;
  full.Check(600.0, servers, views, counts);

  const std::vector<std::string> want = {
      "dead-server: job 3 has 1 worker(s) and 1 ps on dead server 1",
      "dead-server: job 5 has 2 worker(s) and 1 ps on dead server 1",
      "dead-server: job 7 has 1 worker(s) and 1 ps on dead server 2",
      "capacity: server 3 overcommitted: placed " + (demand * 7).ToString() +
          " on capacity " + servers[3].capacity().ToString(),
  };
  for (const InvariantAuditor* auditor : {&incremental, &full}) {
    std::vector<std::string> got;
    for (const AuditViolation& v : auditor->violations()) {
      got.push_back(v.invariant + ": " + v.detail);
    }
    EXPECT_EQ(got, want) << (auditor == &full ? "full" : "incremental");
  }
  incremental.CheckTrackerAgainstViews(600.0, views);
  EXPECT_EQ(incremental.violations().size(), want.size());
}

// Re-placement churn: jobs move between servers, grow and shrink, pause and
// resume every round; the tracker must always match the true placements, and
// the incremental check must agree with the full one.
TEST(IncrementalAuditorTest, ReplacementChurnKeepsTrackerExact) {
  constexpr int kServers = 12;
  constexpr int kJobs = 9;
  std::vector<Server> servers;
  for (int s = 0; s < kServers; ++s) {
    servers.push_back(Server(s, Resources(64, 256, 0, 10)));
  }
  const Resources demand(1, 4, 0, 0.1);
  std::vector<JobPlacement> placements(kJobs);
  std::vector<InvariantAuditor::JobView> views(kJobs);
  InvariantAuditor auditor;
  auditor.SetClusterSize(servers.size());
  InvariantAuditor::Counts counts;
  counts.submitted = kJobs;
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    for (int j = 0; j < kJobs; ++j) {
      InvariantAuditor::JobView& view = views[static_cast<size_t>(j)];
      JobPlacement& placement = placements[static_cast<size_t>(j)];
      view.job_id = 100 - 7 * j;  // descending ids, as arrivals need not be
      view.steps_done = round;
      view.worker_demand = demand;
      view.ps_demand = demand;
      placement = {};
      view.num_ps = 0;
      view.num_workers = 0;
      if (rng.Bernoulli(0.2)) {
        view.state = JobState::kPaused;
        view.placement = nullptr;
        auditor.ClearPlacement(view.job_id);
        continue;
      }
      for (int s = 0; s < kServers; ++s) {
        if (rng.Bernoulli(0.3)) {
          const int w = static_cast<int>(rng.UniformInt(1, 3));
          const int p = static_cast<int>(rng.UniformInt(0, 1));
          placement.used_servers.push_back(s);
          placement.used_workers.push_back(w);
          placement.used_ps.push_back(p);
          view.num_workers += w;
          view.num_ps += p;
        }
      }
      if (view.num_ps == 0 || view.num_workers == 0) {
        view.state = JobState::kPaused;
        view.placement = nullptr;
        view.num_ps = 0;
        view.num_workers = 0;
        auditor.ClearPlacement(view.job_id);
        continue;
      }
      view.state = JobState::kRunning;
      view.placement = &placement;
      auditor.SetPlacement(view.job_id, demand, demand, placement);
    }
    auditor.CheckIncremental(600.0 * (round + 1), servers, views, counts);
    auditor.CheckTrackerAgainstViews(600.0 * (round + 1), views);
    auditor.Check(600.0 * (round + 1), servers, views, counts);
    ASSERT_TRUE(auditor.ok()) << "round " << round << ": " << auditor.Summary();
  }
}

// ---------------------------------------------------------------------------
// Simulator-level equivalence: mostly-incremental vs. full-every-interval
// auditing must observe the identical simulation (auditing is read-only) and
// both find a healthy faulted run clean.
// ---------------------------------------------------------------------------

RunMetrics RunFaultedSimulator(int full_audit_period) {
  SimulatorConfig sim;
  sim.seed = 11;
  sim.max_sim_time_s = 2e5;
  sim.audit = true;
  sim.full_audit_period = full_audit_period;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;slow@2400:factor=0.7,duration=1800",
      &sim.fault.plan, &error))
      << error;
  sim.fault.task_failure_prob = 0.03;
  sim.fault.checkpoint_period_s = 1800.0;

  WorkloadConfig workload;
  workload.num_jobs = 8;
  workload.arrival_window_s = 1200.0;

  Rng workload_rng(sim.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator simulator(sim, BuildTestbed(), std::move(specs));
  return simulator.Run();
}

TEST(IncrementalAuditorTest, SimulationIsIdenticalUnderAllAuditModes) {
  // Full cross-check every interval (the strictest mode): every check is a
  // full re-derivation plus a tracker-divergence pass.
  const RunMetrics full = RunFaultedSimulator(/*full_audit_period=*/1);
  const RunMetrics incremental = RunFaultedSimulator(/*full_audit_period=*/16);

  for (const RunMetrics* m : {&full, &incremental}) {
    EXPECT_GT(m->audit_checks, 0);
    EXPECT_EQ(m->audit_violations, 0);
  }
  EXPECT_EQ(full.completed_jobs, incremental.completed_jobs);
  EXPECT_EQ(full.avg_jct_s, incremental.avg_jct_s);    // bitwise
  EXPECT_EQ(full.makespan_s, incremental.makespan_s);  // bitwise
  EXPECT_EQ(full.rolled_back_steps, incremental.rolled_back_steps);
  EXPECT_EQ(full.job_evictions, incremental.job_evictions);
  EXPECT_EQ(full.task_failures, incremental.task_failures);
  EXPECT_EQ(full.audit_checks, incremental.audit_checks);
}

}  // namespace
}  // namespace optimus
