// Policy-family tests: the batch decision surface, the sensitivity
// observation surface, the three non-Optimus policy families (goodput /
// synergy / dl2), the policy table's traits and the scaling-hysteresis veto.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sched/dl2_allocator.h"
#include "src/sched/goodput_allocator.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/scheduler_registry.h"
#include "src/sched/synergy_allocator.h"
#include "src/sched/what_if.h"
#include "src/sim/experiment.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"
#include "tests/test_speeds.h"

namespace optimus {
namespace {

std::string ScenarioPath(const std::string& name) {
  return std::string(OPTIMUS_SOURCE_DIR) + "/scenarios/" + name;
}

// ---------------------------------------------------------------------------
// Batch math (scheduler.h)
// ---------------------------------------------------------------------------

TEST(BatchMathTest, StatisticalEfficiencyIsOneAtReferenceAndDecays) {
  const double phi = 500.0;
  EXPECT_DOUBLE_EQ(StatisticalEfficiency(phi, 256.0, 256.0), 1.0);
  EXPECT_GT(StatisticalEfficiency(phi, 256.0, 64.0), 1.0);
  EXPECT_LT(StatisticalEfficiency(phi, 256.0, 1024.0), 1.0);
  // Monotone decreasing in b.
  double prev = StatisticalEfficiency(phi, 256.0, 32.0);
  for (double b = 64.0; b <= 4096.0; b *= 2.0) {
    const double e = StatisticalEfficiency(phi, 256.0, b);
    EXPECT_LT(e, prev) << "b=" << b;
    prev = e;
  }
  // Degenerate inputs fall back to 1.0 (no discount).
  EXPECT_DOUBLE_EQ(StatisticalEfficiency(phi, 0.0, 512.0), 1.0);
  EXPECT_DOUBLE_EQ(StatisticalEfficiency(phi, 256.0, 0.0), 1.0);
}

TEST(BatchMathTest, BatchProgressFactorIsExactlyOneAtReference) {
  for (const double phi : {0.0, 1.0, 250.0, 5000.0}) {
    for (const double ref : {32.0, 256.0, 1024.0}) {
      EXPECT_DOUBLE_EQ(BatchProgressFactor(phi, ref, ref), 1.0)
          << "phi=" << phi << " ref=" << ref;
    }
  }
}

TEST(BatchMathTest, BatchProgressFactorSaturatesAtNoiseScaleBound) {
  const double phi = 1000.0, ref = 256.0;
  const double bound = (phi + ref) / ref;
  double prev = BatchProgressFactor(phi, ref, 256.0);
  for (double b = 512.0; b <= 1 << 20; b *= 2.0) {
    const double f = BatchProgressFactor(phi, ref, b);
    EXPECT_GT(f, prev);
    EXPECT_LT(f, bound);
    prev = f;
  }
}

// ---------------------------------------------------------------------------
// Goodput allocator
// ---------------------------------------------------------------------------

SpeedEstimate ConcaveSpeed(double scale) {
  return KeepSpeed([scale](int p, int w) {
    return scale * (1.0 - 1.0 / (1.0 + p)) * (1.0 - 1.0 / (1.0 + w));
  });
}

// Batch scaling by the CNN-rand step-time profile: its steps are
// communication-bound, so physical steps/s decays mildly with b and larger
// batches win on effective progress until the statistical-efficiency decay
// overtakes.
SpeedEstimate BatchScaled(const SpeedEstimate& base) {
  StepProfile profile;
  profile.model = &FindModel("CNN-rand");
  profile.global_batch = 256;
  return base.WithBatchScaling(profile, CommConfig{});
}

SchedJob FixedBatchJob(int id) {
  SchedJob job;
  job.job_id = id;
  job.worker_demand = Resources(2.5, 10, 0, 0.15);
  job.ps_demand = Resources(2.5, 10, 0, 0.15);
  job.max_ps = 8;
  job.max_workers = 8;
  job.remaining_epochs = 4.0 + id;
  job.speed = ConcaveSpeed(1.0 + (id % 3));
  return job;
}

TEST(GoodputAllocatorTest, BatchRungsLadderIsSortedAndBounded) {
  SchedJob job = FixedBatchJob(0);
  EXPECT_TRUE(GoodputAllocator::BatchRungs(job).empty());  // not adaptive

  job.batch_ref = 256;
  job.batch_min = 64;
  job.batch_max = 1024;
  job.grad_noise_scale = 500.0;
  EXPECT_TRUE(GoodputAllocator::BatchRungs(job).empty());  // not batch_scalable()
  job.speed = BatchScaled(job.speed);
  const std::vector<int> rungs = GoodputAllocator::BatchRungs(job);
  EXPECT_EQ(rungs, (std::vector<int>{64, 128, 256, 512, 1024}));

  // The cap bounds the doubling ladder but batch_max and the reference batch
  // always survive.
  const std::vector<int> capped = GoodputAllocator::BatchRungs(job, 3);
  EXPECT_EQ(capped, (std::vector<int>{64, 128, 256, 1024}));
}

TEST(GoodputAllocatorTest, MatchesOptimusOnFixedBatchWorkload) {
  std::vector<SchedJob> jobs;
  for (int j = 0; j < 6; ++j) {
    jobs.push_back(FixedBatchJob(j));
  }
  const Resources capacity(120, 1200, 0, 60);
  const std::vector<Allocation> want = OptimusAllocator().Allocate(jobs, capacity);
  const std::vector<Allocation> got = GoodputAllocator().Allocate(jobs, capacity);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].num_ps, got[i].num_ps) << "job " << i;
    EXPECT_EQ(want[i].num_workers, got[i].num_workers) << "job " << i;
    EXPECT_EQ(got[i].global_batch, 0) << "job " << i;
  }
}

TEST(GoodputAllocatorTest, PicksTheArgmaxEffectiveBatch) {
  SchedJob job = FixedBatchJob(0);
  job.batch_ref = 256;
  job.batch_min = 64;
  job.batch_max = 1024;
  job.grad_noise_scale = 1000.0;
  job.speed = BatchScaled(job.speed);

  const Resources capacity(120, 1200, 0, 60);
  const std::vector<Allocation> got = GoodputAllocator().Allocate({job}, capacity);
  ASSERT_EQ(got.size(), 1u);
  const Allocation alloc = got[0];
  ASSERT_TRUE(ActiveAllocation(alloc, job.comm));
  EXPECT_NE(alloc.global_batch, 0);

  // Recompute the argmax over the same rungs the allocator used.
  int want_b = job.batch_ref;
  double want_s = 0.0;
  for (const int b : GoodputAllocator::BatchRungs(job)) {
    const double s = job.speed.BatchSpeed(alloc.num_ps, alloc.num_workers, b) *
                     BatchProgressFactor(job.grad_noise_scale, job.batch_ref, b);
    if (s > want_s) {
      want_s = s;
      want_b = b;
    }
  }
  EXPECT_EQ(alloc.global_batch, want_b);
  EXPECT_GT(want_b, job.batch_ref);  // the workload was built so bigger wins
}

// ---------------------------------------------------------------------------
// Synergy allocator
// ---------------------------------------------------------------------------

TEST(SynergyAllocatorTest, DeflateDemandRespectsFloorAndLeavesGpusAlone) {
  const Resources demand(8, 40, 2, 0.5);
  const Resources same = SynergyAllocator::DeflateDemand(demand, 1.0, 1.0);
  EXPECT_TRUE(same == demand);

  const Resources flat = SynergyAllocator::DeflateDemand(demand, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(flat.cpu(), 2.0);        // 8 * 0.25
  EXPECT_DOUBLE_EQ(flat.memory_gb(), 10.0);  // 40 * 0.25
  EXPECT_DOUBLE_EQ(flat.gpu(), 2.0);        // untouched
  EXPECT_DOUBLE_EQ(flat.bandwidth_gbps(), 0.5);

  const Resources half = SynergyAllocator::DeflateDemand(demand, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(half.cpu(), 8.0 * (0.25 + 0.75 * 0.5));
  EXPECT_DOUBLE_EQ(half.memory_gb(), 40.0);
}

TEST(SynergyAllocatorTest, MatchesOptimusOnFullySensitiveJobs) {
  std::vector<SchedJob> jobs;
  for (int j = 0; j < 5; ++j) {
    jobs.push_back(FixedBatchJob(j));  // default 1.0 / 1.0 sensitivity
  }
  const Resources capacity(100, 1000, 0, 50);
  const std::vector<Allocation> want = OptimusAllocator().Allocate(jobs, capacity);
  const std::vector<Allocation> got = SynergyAllocator().Allocate(jobs, capacity);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i] == got[i]) << "job " << i;
  }
}

TEST(SynergyAllocatorTest, CpuInsensitiveJobPacksMoreUnderCpuPressure) {
  // CPU-dominant demand in a CPU-tight cluster: the fully sensitive job
  // saturates the CPU budget early, the insensitive one packs past it.
  SchedJob job = FixedBatchJob(0);
  job.worker_demand = Resources(10, 4, 0, 0.1);
  job.ps_demand = Resources(10, 4, 0, 0.1);
  const Resources capacity(60, 400, 0, 40);

  const std::vector<Allocation> sensitive = SynergyAllocator().Allocate({job}, capacity);
  job.cpu_sensitivity = 0.0;
  const std::vector<Allocation> insensitive =
      SynergyAllocator().Allocate({job}, capacity);
  ASSERT_TRUE(ActiveAllocation(sensitive[0], job.comm));
  ASSERT_TRUE(ActiveAllocation(insensitive[0], job.comm));
  const int tasks_sensitive = sensitive[0].num_ps + sensitive[0].num_workers;
  const int tasks_insensitive = insensitive[0].num_ps + insensitive[0].num_workers;
  EXPECT_GT(tasks_insensitive, tasks_sensitive);
}

// ---------------------------------------------------------------------------
// DL2 allocator
// ---------------------------------------------------------------------------

TEST(Dl2AllocatorTest, RegistryFactoryCarriesTheTrainedWeights) {
  // The trained policy is non-trivial: at least one non-bias weight.
  const Dl2Weights w = DefaultDl2Weights();
  double sum = 0.0;
  for (size_t k = 1; k < kDl2NumFeatures; ++k) {
    EXPECT_GE(w[k], 0.0);  // NNLS fit
    sum += w[k];
  }
  EXPECT_GT(sum, 0.0);
}

TEST(Dl2AllocatorTest, DeterministicAndWithinCapacity) {
  std::vector<SchedJob> jobs;
  for (int j = 0; j < 6; ++j) {
    jobs.push_back(FixedBatchJob(j));
  }
  const Resources capacity(50, 500, 0, 25);
  const Dl2Allocator allocator;
  const std::vector<Allocation> a = allocator.Allocate(jobs, capacity);
  const std::vector<Allocation> b = allocator.Allocate(jobs, capacity);
  ASSERT_EQ(a.size(), b.size());
  Resources used;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "job " << i;
    used = used + AllocationDemand(jobs[i], a[i]);
  }
  EXPECT_TRUE(capacity.Fits(used));
}

// ---------------------------------------------------------------------------
// Positional allocation contract, for every policy
// ---------------------------------------------------------------------------

TEST(AllocatorContractTest, OneEntryPerJobInInputOrder) {
  // Batch-adaptive jobs, one of them all-reduce, on a cluster with room for
  // two (1 PS, 1 worker) seeds of 5 CPUs: some job must get nothing.
  std::vector<SchedJob> jobs;
  for (int j = 0; j < 6; ++j) {
    SchedJob job = FixedBatchJob(j);
    job.batch_ref = 256;
    job.batch_min = 64;
    job.batch_max = 1024;
    job.grad_noise_scale = 500.0;
    job.speed = BatchScaled(job.speed);
    jobs.push_back(job);
  }
  jobs[3].comm = CommMode::kAllReduce;
  jobs[3].max_ps = 0;
  jobs[3].ps_demand = Resources();
  const Resources capacity(12, 1200, 0, 60);

  for (const SchedulerPolicyInfo& info : Policies()) {
    SCOPED_TRACE(info.name);
    const std::unique_ptr<Allocator> allocator = info.create(nullptr);
    ASSERT_NE(allocator, nullptr);
    const std::vector<Allocation> result = allocator->Allocate(jobs, capacity);
    ASSERT_EQ(result.size(), jobs.size());
    size_t unseeded = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (ActiveAllocation(result[i], jobs[i].comm)) {
        continue;
      }
      ++unseeded;
      EXPECT_EQ(result[i].num_ps, 0) << "job " << i;
      EXPECT_EQ(result[i].num_workers, 0) << "job " << i;
      EXPECT_EQ(result[i].global_batch, 0) << "job " << i;
    }
    EXPECT_GT(unseeded, 0u);
    EXPECT_LT(unseeded, jobs.size());

    // What-if appends the candidate, so its allocation is the last entry.
    const std::vector<SchedJob> existing(jobs.begin(), jobs.end() - 1);
    const WhatIfResult what_if =
        EvaluateAdmission(*allocator, existing, jobs.back(), capacity);
    EXPECT_EQ(what_if.new_job_alloc.num_ps, result.back().num_ps);
    EXPECT_EQ(what_if.new_job_alloc.num_workers, result.back().num_workers);
    EXPECT_EQ(what_if.new_job_alloc.global_batch, result.back().global_batch);
  }
}

// ---------------------------------------------------------------------------
// Policy-table traits and the scaling-hysteresis veto
// ---------------------------------------------------------------------------

TEST(RegistryTraitsTest, NewPolicyTraitsMatchTheirFamilies) {
  const SchedulerPolicyInfo* goodput = FindPolicy("goodput");
  ASSERT_NE(goodput, nullptr);
  EXPECT_TRUE(goodput->traits.adapts_batch);
  EXPECT_FALSE(goodput->traits.uses_sensitivity);

  const SchedulerPolicyInfo* synergy = FindPolicy("synergy");
  ASSERT_NE(synergy, nullptr);
  EXPECT_TRUE(synergy->traits.uses_sensitivity);
  EXPECT_FALSE(synergy->traits.adapts_batch);

  // No fixed-batch builtin claims the batch knob.
  for (const char* name : {"optimus", "optimus_rack", "drf", "tetris", "fifo",
                           "srtf", "dl2"}) {
    const SchedulerPolicyInfo* info = FindPolicy(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->traits.adapts_batch) << name;
  }
}

TEST(RegistryTraitsTest, OnlyDrfSkipsScalingHysteresis) {
  for (const char* name : {"optimus", "optimus_rack", "drf", "tetris", "fifo",
                           "srtf", "goodput", "synergy", "dl2"}) {
    const SchedulerPolicyInfo* info = FindPolicy(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->traits.scaling_hysteresis, std::string(name) != "drf")
        << name;
  }
}

TEST(ScalingHysteresisTest, WorthRescalingWhenTheSavingCoversTheStall) {
  // f(p, w) = w epochs/s and 12 epochs left: (1, 2) finishes in 6 s and
  // (1, 4) in 3 s, a saving of exactly 3 s.
  SchedJob job;
  job.speed = KeepSpeed([](int, int w) { return static_cast<double>(w); });
  job.remaining_epochs = 12.0;
  const Allocation current{1, 2};
  const Allocation next{1, 4};
  EXPECT_TRUE(WorthRescaling(job, current, next, 3.0));
  EXPECT_FALSE(WorthRescaling(job, current, next, 3.5));
  EXPECT_TRUE(WorthRescaling(job, current, current, 3.5));

  // A move from or to an inactive allocation is never held.
  EXPECT_TRUE(WorthRescaling(job, Allocation{}, next, 1e9));
  EXPECT_TRUE(WorthRescaling(job, current, Allocation{}, 1e9));
  EXPECT_TRUE(WorthRescaling(job, current, Allocation{0, 4}, 1e9));

  // A NaN saving (infinite work left) is not vetoed.
  job.remaining_epochs = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(WorthRescaling(job, current, next, 3.5));
}

TEST(RegistryTraitsTest, SimulatorConfigPolicyMustBeRegistered) {
  const SimulatorConfig defaults;
  EXPECT_EQ(defaults.policy, "optimus");
  std::vector<std::string> errors;
  EXPECT_TRUE(defaults.Validate(&errors));
  EXPECT_TRUE(errors.empty());
  for (const char* bad : {"", "nope"}) {
    SimulatorConfig config;
    config.policy = bad;
    errors.clear();
    EXPECT_FALSE(config.Validate(&errors)) << "'" << bad << "'";
    ASSERT_EQ(errors.size(), 1u) << "'" << bad << "'";
    std::string unknown;
    EXPECT_EQ(FindPolicy(bad, &unknown), nullptr);
    EXPECT_EQ(errors[0], "policy: " + unknown);
  }
}

// ---------------------------------------------------------------------------
// Workload DSL: batch bounds and sensitivity profiles
// ---------------------------------------------------------------------------

constexpr char kProfiledScenario[] = R"({
  "schema": "scenario-v1",
  "name": "profiled",
  "seed": 5,
  "policies": ["goodput"],
  "workload": {
    "jobs": 4,
    "mode": "sync",
    "batch_min": 64,
    "batch_max": 2048,
    "cpu_sensitivity": 0.3,
    "mem_sensitivity": 0.8
  },
  "cluster": {"testbed": true}
})";

TEST(WorkloadDslTest, BatchAndSensitivityKeysReachEveryJobSpec) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenario(kProfiledScenario, "t", &spec, &error)) << error;
  const std::vector<JobSpec> jobs = spec.JobsForRepeat();
  ASSERT_EQ(jobs.size(), 4u);
  for (const JobSpec& job : jobs) {
    EXPECT_EQ(job.batch_min, 64);
    EXPECT_EQ(job.batch_max, 2048);
    EXPECT_DOUBLE_EQ(job.cpu_sensitivity, 0.3);
    EXPECT_DOUBLE_EQ(job.mem_sensitivity, 0.8);
    EXPECT_EQ(job.BatchMin(), 64);
    EXPECT_EQ(job.BatchMax(), 2048);
    EXPECT_DOUBLE_EQ(job.CpuSensitivity(), 0.3);
    EXPECT_DOUBLE_EQ(job.MemSensitivity(), 0.8);
  }
}

TEST(WorkloadDslTest, ProfiledWorkloadDrawsTheSameJobsAsUnprofiled) {
  // The new keys must not consume RNG draws: the generated arrival times and
  // models are bit-identical with and without them.
  ScenarioSpec with_profile;
  std::string error;
  ASSERT_TRUE(ParseScenario(kProfiledScenario, "t", &with_profile, &error))
      << error;
  ScenarioSpec plain = with_profile;
  plain.workload.batch_min = 0;
  plain.workload.batch_max = 0;
  plain.workload.cpu_sensitivity = -1.0;
  plain.workload.mem_sensitivity = -1.0;
  const std::vector<JobSpec> a = with_profile.JobsForRepeat();
  const std::vector<JobSpec> b = plain.JobsForRepeat();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_time_s, b[i].arrival_time_s);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].dataset_scale, b[i].dataset_scale);
  }
}

TEST(WorkloadDslTest, RejectsInvalidProfiles) {
  const struct {
    const char* json;
    const char* want;
  } cases[] = {
      {R"({"schema": "scenario-v1", "name": "x", "policies": ["optimus"],
           "workload": {"jobs": 2, "cpu_sensitivity": 1.5},
           "cluster": {"testbed": true}})",
       "cpu_sensitivity"},
      {R"({"schema": "scenario-v1", "name": "x", "policies": ["optimus"],
           "workload": {"jobs": 2, "batch_min": 512, "batch_max": 128},
           "cluster": {"testbed": true}})",
       "batch"},
  };
  for (const auto& c : cases) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ParseScenario(c.json, "t", &spec, &error));
    EXPECT_NE(error.find(c.want), std::string::npos) << error;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: batch-knob bit-compat (new-policy determinism is the
// determinism sweep's, tests/determinism_sweep_test.cc)
// ---------------------------------------------------------------------------

RunFingerprint RunPolicy(const ScenarioSpec& scenario, const std::string& policy,
                         SimEngine engine) {
  SimulatorConfig config = scenario.MakeSimConfig(policy);
  config.engine = engine;
  config.audit = true;
  Simulator sim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
  sim.Run();
  return RunFingerprint::Of(sim);
}

TEST(PolicyFamiliesEndToEndTest, GoodputWithPinnedBatchMatchesOptimus) {
  // batch_min == batch_max pins the batch (disables adaptivity), so goodput
  // must reproduce plain optimus bit for bit — the batch knob unset/pinned
  // path is the pre-existing behavior.
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("batch_adaptive.json"), &scenario,
                               &error))
      << error;
  scenario.workload.batch_min = 256;
  scenario.workload.batch_max = 256;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    std::string why;
    EXPECT_TRUE(RunPolicy(scenario, "goodput", engine)
                    .Matches(RunPolicy(scenario, "optimus", engine), &why))
        << "pinned-batch " << SimEngineName(engine) << " diverged on " << why;
  }
}

TEST(PolicyFamiliesEndToEndTest, GoodputAdaptsBatchesAndBeatsOptimusHere) {
  // The committed batch_adaptive scenario is the acceptance workload: batch
  // co-adaptation must actually engage (overrides in the trace) and win.
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("batch_adaptive.json"), &scenario,
                               &error))
      << error;
  const RunFingerprint optimus = RunPolicy(scenario, "optimus", SimEngine::kInterval);
  const RunFingerprint goodput = RunPolicy(scenario, "goodput", SimEngine::kInterval);
  ASSERT_EQ(optimus.metrics.completed_jobs, goodput.metrics.completed_jobs);
  EXPECT_LT(goodput.metrics.avg_jct_s, optimus.metrics.avg_jct_s);
}

}  // namespace
}  // namespace optimus
