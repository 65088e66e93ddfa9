// JobTable (src/sim/job_table.h) with no Simulator: the pending queue's
// (arrival, order key) order, the by-id index, kills before arrival,
// snapshots in every state, and the fit-stat totals.

#include "src/sim/job_table.h"

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/models/model_zoo.h"
#include "src/sim/invariant_auditor.h"

namespace optimus {
namespace {

JobSpec Spec(int id, double arrival_s) {
  JobSpec spec;
  spec.id = id;
  spec.model = &FindModel("DSSM");
  spec.dataset_scale = 0.01;
  spec.arrival_time_s = arrival_s;
  return spec;
}

std::unique_ptr<JobRuntime> Runtime(JobTable* table, size_t key) {
  return std::make_unique<JobRuntime>(table->Take(key), key, Rng(7));
}

// Admits every pending spec in queue order; returns the order keys taken.
std::vector<size_t> AdmitAll(JobTable* table) {
  std::vector<size_t> taken;
  for (std::optional<size_t> key = table->PendingHead(); key; key = table->PendingHead()) {
    taken.push_back(*key);
    table->Insert(Runtime(table, *key));
  }
  return taken;
}

std::vector<int> LiveIds(const JobTable& table) {
  std::vector<int> ids;
  for (const auto& jr : table.Live()) {
    ids.push_back(jr->job.id());
  }
  return ids;
}

TEST(JobTableTest, AdmitsInArrivalThenKeyOrderAndKeepsLiveInKeyOrder) {
  // Unsorted input: the cursor serves keys 0-1, the heap keys 2-3.
  JobTable table({Spec(0, 0.0), Spec(1, 50.0), Spec(2, 20.0), Spec(3, 100.0)});
  ASSERT_TRUE(table.Submit(Spec(10, 30.0)));   // key 4, lands before key 1
  ASSERT_TRUE(table.Submit(Spec(11, 100.0)));  // key 5, ties key 3
  EXPECT_EQ(table.keys(), 6u);
  EXPECT_EQ(table.NextArrival(), 0.0);
  EXPECT_EQ(AdmitAll(&table), (std::vector<size_t>{0, 2, 4, 1, 3, 5}));
  EXPECT_EQ(LiveIds(table), (std::vector<int>{0, 1, 2, 3, 10, 11}));
  EXPECT_EQ(table.materialized(), 6);
  EXPECT_FALSE(table.PendingHead().has_value());
  EXPECT_EQ(table.NextArrival(), std::numeric_limits<double>::infinity());
}

TEST(JobTableTest, RejectsDuplicateIdsAtSubmitAndIndexTime) {
  JobTable table({Spec(0, 0.0), Spec(1, 10.0)});
  EXPECT_FALSE(table.Submit(Spec(1, 20.0)));  // a pending input spec's id
  EXPECT_EQ(table.keys(), 2u);
  ASSERT_TRUE(table.Submit(Spec(2, 20.0)));
  EXPECT_FALSE(table.Submit(Spec(2, 30.0)));  // a submission's id
  EXPECT_EQ(table.Find(1)->key, 1u);
  EXPECT_EQ(table.Find(99), nullptr);

  // Two input specs sharing an id are caught when the index is built.
  EXPECT_DEATH(JobTable({Spec(5, 0.0), Spec(5, 1.0)}).Find(0), "duplicate job id 5");
}

TEST(JobTableTest, KillBeforeArrivalTakesTheSpecOutOfTheQueue) {
  JobTable table({Spec(0, 0.0), Spec(1, 10.0), Spec(2, 20.0)});
  const JobTable::JobRef* ref = table.Find(1);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->live, nullptr);
  JobRuntime* jr = table.Insert(Runtime(&table, ref->key));
  EXPECT_EQ(table.Find(1)->live, jr);
  jr->job.MarkCompleted(5.0);
  EXPECT_EQ(AdmitAll(&table), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(LiveIds(table), (std::vector<int>{0, 1, 2}));
}

TEST(JobTableTest, SnapshotsPendingLiveAndRetiredJobs) {
  JobTable table({Spec(0, 0.0), Spec(1, 5.0), Spec(2, 40.0)});
  table.Insert(Runtime(&table, 0));
  JobRuntime* live = table.Insert(Runtime(&table, 1));
  live->job.set_state(JobState::kRunning);
  live->job.AdvanceSteps(12.0);
  table.Find(0)->live->job.MarkCompleted(30.0);
  InvariantAuditor auditor;
  table.RetireCompleted(&auditor);
  EXPECT_EQ(table.retired(), 1);
  EXPECT_EQ(table.materialized(), 2);

  const JobSnapshot pending = table.Snapshot(2);
  EXPECT_EQ(pending.state, JobState::kPending);
  EXPECT_EQ(pending.arrival_time_s, 40.0);
  const JobSnapshot running = table.Snapshot(1);
  EXPECT_EQ(running.state, JobState::kRunning);
  EXPECT_EQ(running.steps_done, 12.0);
  const JobSnapshot retired = table.Snapshot(0);
  EXPECT_EQ(retired.state, JobState::kCompleted);
  EXPECT_EQ(retired.completion_time_s, 30.0);
  EXPECT_EQ(retired.jct_s, 30.0);
  EXPECT_EQ(table.Find(0)->live, nullptr);
  EXPECT_TRUE(table.Find(0)->retired.has_value());

  // The walk merges the retired record with the live runtime in key order,
  // and a retired record stays found after it sorts the records.
  table.Insert(Runtime(&table, 2));
  table.Find(2)->live->job.MarkCompleted(50.0);
  table.RetireCompleted(&auditor);
  std::vector<int> walked;
  table.ForEachSnapshot([&](const JobSnapshot& s) { walked.push_back(s.id); });
  EXPECT_EQ(walked, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(table.Snapshot(2).completion_time_s, 50.0);
  EXPECT_EQ(table.Snapshot(0).completion_time_s, 30.0);
  EXPECT_DEATH(table.Snapshot(99), "unknown job id 99");
}

TEST(JobTableTest, TotalsSumLiveAndRetiredFitStats) {
  JobTable table({Spec(0, 0.0), Spec(1, 0.0), Spec(2, 0.0)});
  AdmitAll(&table);
  ModelFitStats conv;
  ModelFitStats speed;
  for (const auto& jr : table.Live()) {
    jr->conv = std::make_unique<ConvergenceModel>();
    jr->speed = std::make_unique<SpeedModel>(TrainingMode::kSync, 256);
    for (int k = 1; k <= 40 + jr->job.id() * 10; ++k) {
      jr->conv->AddSample(k * 10.0, 1.0 / (0.01 * k + 1.0) + 0.1);
    }
    for (int w = 1; w <= 4; ++w) {
      jr->speed->AddSample(1, w, 0.5 * w / (1.0 + 0.1 * w));
      jr->speed->AddSample(2, w, 0.6 * w / (1.0 + 0.1 * w));
    }
    jr->conv->Fit();
    jr->speed->Fit();
    jr->speed->Fit();  // a cache hit
    conv += jr->conv->fit_stats();
    speed += jr->speed->fit_stats();
  }
  ASSERT_GT(conv.fits, 0);
  ASSERT_GT(speed.fit_cache_hits, 0);
  auto expect_totals = [&] {
    const JobTable::Totals& t = table.totals();
    EXPECT_EQ(t.conv.fits, conv.fits);
    EXPECT_EQ(t.conv.nnls_iterations, conv.nnls_iterations);
    EXPECT_EQ(t.speed.fits, speed.fits);
    EXPECT_EQ(t.speed.fit_cache_hits, speed.fit_cache_hits);
    EXPECT_EQ(t.speed.nnls_iterations, speed.nnls_iterations);
  };
  expect_totals();

  table.Find(1)->live->job.MarkCompleted(10.0);
  InvariantAuditor auditor;
  table.RetireCompleted(&auditor);
  table.MarkTotalsStale();
  expect_totals();
}

}  // namespace
}  // namespace optimus
