// Job generation: one pinned hash over both entry points.
//
// GenerateWorkload reads one sequential stream; GenerateJobs reads a split
// per job. The hash below covers every JobSpec field both produce over a
// matrix of arrival kinds, forced modes, job counts, seeds and downscale
// targets, plus the next draw of the caller's Rng, so any change to either
// draw path (order, count or arithmetic of the draws) moves it.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/job.h"
#include "src/common/rng.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

namespace optimus {
namespace {

uint64_t Fnv(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, T v) {
  return Fnv(h, &v, sizeof(v));
}

uint64_t FnvResources(uint64_t h, const Resources& r) {
  for (size_t i = 0; i < kNumResourceTypes; ++i) {
    h = FnvValue(h, r.Get(static_cast<ResourceType>(i)));
  }
  return h;
}

uint64_t HashJobs(uint64_t h, const std::vector<JobSpec>& jobs, Rng* rng) {
  h = FnvValue(h, static_cast<uint64_t>(jobs.size()));
  for (const JobSpec& s : jobs) {
    h = FnvValue(h, static_cast<int64_t>(s.id));
    const std::string& name = s.model->name;
    h = FnvValue(h, static_cast<uint64_t>(name.size()));
    h = Fnv(h, name.data(), name.size());
    h = FnvValue(h, static_cast<int32_t>(s.mode));
    h = FnvValue(h, static_cast<int32_t>(s.comm));
    h = FnvValue(h, s.convergence_delta);
    h = FnvValue(h, static_cast<int32_t>(s.patience));
    h = FnvValue(h, static_cast<int32_t>(s.global_batch));
    h = FnvValue(h, static_cast<int32_t>(s.async_minibatch));
    h = FnvResources(h, s.worker_demand);
    h = FnvResources(h, s.ps_demand);
    h = FnvValue(h, s.arrival_time_s);
    h = FnvValue(h, s.dataset_scale);
    h = FnvValue(h, static_cast<int32_t>(s.max_workers));
    h = FnvValue(h, static_cast<int32_t>(s.max_ps));
    h = FnvValue(h, static_cast<int32_t>(s.lr_drop.has_value()));
    if (s.lr_drop.has_value()) {
      h = FnvValue(h, s.lr_drop->epoch);
      h = FnvValue(h, s.lr_drop->c0);
      h = FnvValue(h, s.lr_drop->c2);
    }
    h = FnvValue(h, static_cast<int32_t>(s.batch_min));
    h = FnvValue(h, static_cast<int32_t>(s.batch_max));
    h = FnvValue(h, s.cpu_sensitivity);
    h = FnvValue(h, s.mem_sensitivity);
  }
  // Where the generator left the caller's stream.
  return FnvValue(
      h, rng->UniformInt(0, std::numeric_limits<int64_t>::max()));
}

// Calls `visit` with each workload of the matrix and the Rng that drew it,
// in a fixed order: 405 GenerateWorkload configs and 540 GenerateJobs
// configs, then 2 of GenerateJobs' scenario-only draws (size tails, a
// weighted named mix drawn from the first job on, and the all-reduce flip).
// Returns the number of workloads.
int ForEachMatrixWorkload(const std::function<void(const std::vector<JobSpec>&, Rng*)>& visit) {
  const std::optional<TrainingMode> modes[] = {
      std::nullopt, TrainingMode::kSync, TrainingMode::kAsync};
  const int job_counts[] = {1, 9, 10, 40, 500};
  const uint64_t seeds[] = {7, 42, 0x5eedULL};
  const int64_t targets[] = {0, 20, 80};
  // GenerateWorkload's arrival kinds, by ordinal: uniform, poisson and the
  // bursty Google-trace process.
  using WorkloadArrivals = decltype(WorkloadConfig::arrivals);
  const ArrivalSpec::Kind kinds[] = {
      ArrivalSpec::Kind::kUniform, ArrivalSpec::Kind::kPoisson,
      ArrivalSpec::Kind::kBursty, ArrivalSpec::Kind::kDiurnal};

  int configs = 0;
  for (const std::optional<TrainingMode>& mode : modes) {
    for (int n : job_counts) {
      for (uint64_t seed : seeds) {
        for (int64_t target : targets) {
          for (int k = 0; k < 3; ++k) {
            WorkloadConfig config;
            config.num_jobs = n;
            config.arrivals = static_cast<WorkloadArrivals>(k);
            config.forced_mode = mode;
            config.target_steps_per_epoch = target;
            Rng rng(seed);
            visit(GenerateWorkload(config, &rng), &rng);
            ++configs;
          }
          for (ArrivalSpec::Kind kind : kinds) {
            WorkloadSpec spec;
            spec.num_jobs = n;
            spec.arrivals.kind = kind;
            spec.forced_mode = mode;
            spec.sizes.target_steps_per_epoch = target;
            Rng rng(seed);
            visit(GenerateJobs(spec, &rng), &rng);
            ++configs;
          }
        }
      }
    }
  }
  for (JobSizeSpec::Kind size : {JobSizeSpec::Kind::kPareto,
                                 JobSizeSpec::Kind::kLognormal}) {
    WorkloadSpec spec;
    spec.num_jobs = 40;
    spec.sizes.kind = size;
    spec.models.names = {"ResNet-50", "Seq2Seq", "CNN-rand"};
    spec.models.weights = {1.0, 3.0, 0.5};
    spec.models.cycle_first = false;
    spec.allreduce_fraction = 0.3;
    Rng rng(42);
    visit(GenerateJobs(spec, &rng), &rng);
    ++configs;
  }
  return configs;
}

TEST(JobGeneratorTest, MatrixHashIsPinned) {
  uint64_t h = 14695981039346656037ULL;
  const int configs = ForEachMatrixWorkload(
      [&h](const std::vector<JobSpec>& jobs, Rng* rng) { h = HashJobs(h, jobs, rng); });
  EXPECT_EQ(configs, 405 + 540 + 2);
  EXPECT_EQ(h, 0x45f32b27d3c02f56ULL) << std::hex << "0x" << h;
}

// The generators and the validator agree: every job the matrix draws,
// all-reduce jobs (nonzero ps_demand, max_ps >= 1) included, passes
// JobSpec::Validate.
TEST(JobGeneratorTest, EveryDrawnJobPassesValidate) {
  int allreduce = 0;
  ForEachMatrixWorkload([&allreduce](const std::vector<JobSpec>& jobs, Rng*) {
    for (const JobSpec& job : jobs) {
      std::vector<std::string> errors;
      EXPECT_TRUE(job.Validate(&errors)) << "job " << job.id << ": " << errors.front();
      allreduce += job.comm == CommMode::kAllReduce;
    }
  });
  EXPECT_GT(allreduce, 0);
}

// GenerateJobs' per-index contract: job i's attributes come from its own
// split, so they do not depend on how many jobs the workload has. Arrival
// times are sorted over the whole workload and are not part of it.
TEST(JobGeneratorTest, JobAttributesDependOnlyOnTheirIndex) {
  WorkloadSpec spec;
  spec.sizes.kind = JobSizeSpec::Kind::kLognormal;
  spec.allreduce_fraction = 0.3;
  Rng rng(11);
  spec.num_jobs = 40;
  const std::vector<JobSpec> fewer = GenerateJobs(spec, &rng);
  spec.num_jobs = 45;
  const std::vector<JobSpec> more = GenerateJobs(spec, &rng);
  ASSERT_EQ(more.size(), 45u);
  for (size_t i = 0; i < fewer.size(); ++i) {
    EXPECT_EQ(fewer[i].id, more[i].id);
    EXPECT_EQ(fewer[i].model, more[i].model) << "job " << i;
    EXPECT_EQ(fewer[i].mode, more[i].mode) << "job " << i;
    EXPECT_EQ(fewer[i].comm, more[i].comm) << "job " << i;
    EXPECT_EQ(fewer[i].convergence_delta, more[i].convergence_delta) << "job " << i;
    EXPECT_EQ(fewer[i].dataset_scale, more[i].dataset_scale) << "job " << i;
  }
}

}  // namespace
}  // namespace optimus
