#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/trace_replay.h"
#include "src/sim/workload.h"

namespace optimus {
namespace {

TEST(TraceReplayTest, RoundTripPreservesWorkload) {
  WorkloadConfig config;
  config.num_jobs = 12;
  Rng rng(5);
  const std::vector<JobSpec> original = GenerateWorkload(config, &rng);

  std::ostringstream os;
  WriteWorkloadCsv(original, os);

  std::istringstream is(os.str());
  std::vector<JobSpec> restored;
  std::string error;
  ASSERT_TRUE(ReadWorkloadCsv(is, TraceReplayOptions{}, &restored, &error)) << error;
  ASSERT_EQ(restored.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].id, original[i].id);
    EXPECT_EQ(restored[i].model, original[i].model);
    EXPECT_EQ(restored[i].mode, original[i].mode);
    EXPECT_DOUBLE_EQ(restored[i].arrival_time_s, original[i].arrival_time_s);
    EXPECT_DOUBLE_EQ(restored[i].convergence_delta, original[i].convergence_delta);
    EXPECT_DOUBLE_EQ(restored[i].dataset_scale, original[i].dataset_scale);
    EXPECT_EQ(restored[i].patience, original[i].patience);
    EXPECT_EQ(restored[i].max_ps, original[i].max_ps);
    EXPECT_EQ(restored[i].max_workers, original[i].max_workers);
  }
}

TEST(TraceReplayTest, SortsByArrival) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,ResNet-50,sync,500,0.02,3,0.01,16,16\n"
      "1,CNN-rand,async,100,0.03,3,0.1,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadWorkloadCsv(is, TraceReplayOptions{}, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 1);  // earlier arrival first
  EXPECT_EQ(jobs[1].id, 0);
}

TEST(TraceReplayTest, AppliesDemandOptions) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,DSSM,sync,0,0.02,3,0.01,8,8\n");
  TraceReplayOptions options;
  options.worker_demand = Resources(4, 20, 1, 0.5);
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadWorkloadCsv(is, options, &jobs, &error)) << error;
  EXPECT_DOUBLE_EQ(jobs[0].worker_demand.cpu(), 4);
  EXPECT_DOUBLE_EQ(jobs[0].worker_demand.gpu(), 1);
}

TEST(TraceReplayTest, RejectsMissingHeader) {
  std::istringstream is("0,ResNet-50,sync,0,0.02,3,0.01,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, TraceReplayOptions{}, &jobs, &error));
  EXPECT_NE(error.find("header"), std::string::npos);
  EXPECT_TRUE(jobs.empty());
}

TEST(TraceReplayTest, RejectsUnknownModel) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,GPT-7,sync,0,0.02,3,0.01,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, TraceReplayOptions{}, &jobs, &error));
  EXPECT_NE(error.find("unknown model"), std::string::npos);
}

TEST(TraceReplayTest, RejectsBadMode) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,DSSM,halfsync,0,0.02,3,0.01,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, TraceReplayOptions{}, &jobs, &error));
  EXPECT_NE(error.find("unknown mode"), std::string::npos);
}

TEST(TraceReplayTest, RejectsWrongFieldCount) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,DSSM,sync,0,0.02\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, TraceReplayOptions{}, &jobs, &error));
  EXPECT_NE(error.find("9 fields"), std::string::npos);
}

// Each bad row fails with an error naming its line and the reason.
TEST(TraceReplayTest, RejectsOutOfRangeValues) {
  const std::string header =
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,DSSM,sync,0,0.02,3,0.01,16,16\n";
  const struct {
    const char* row;
    const char* want;
  } cases[] = {
      {"1,DSSM,sync,0,-0.02,3,0.01,16,16", "line 3: out-of-range"},
      {"1,DSSM,sync,nan,0.02,3,0.01,16,16", "line 3: arrival_s expects a finite number"},
      {"1,DSSM,sync,0,0.02,3,inf,16,16", "line 3: dataset_scale expects a finite number"},
      {"1,DSSM,sync,0,0.02,3,1e999,16,16", "line 3: dataset_scale expects a finite number"},
      {"1,DSSM,sync,5x,0.02,3,0.01,16,16", "line 3: arrival_s expects a finite number, got '5x'"},
      {"1,DSSM,sync,0,0.02,3,0.01,16,16x", "line 3: max_workers expects an integer, got '16x'"},
      {"1,DSSM,sync,0,0.02,3,0.01,4294967312,16", "line 3: max_ps expects an integer"},
      {"0,DSSM,sync,0,0.02,3,0.01,16,16", "line 3: duplicate job_id 0 (first on line 2)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.row);
    std::istringstream is(header + c.row + "\n");
    std::vector<JobSpec> jobs;
    std::string error;
    EXPECT_FALSE(ReadWorkloadCsv(is, TraceReplayOptions{}, &jobs, &error));
    EXPECT_NE(error.find(c.want), std::string::npos) << error;
    EXPECT_TRUE(jobs.empty());
  }
}

TEST(TraceReplayTest, SkipsEmptyLines) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "\n"
      "0,DSSM,sync,0,0.02,3,0.01,16,16\n"
      "\n");
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadWorkloadCsv(is, TraceReplayOptions{}, &jobs, &error)) << error;
  EXPECT_EQ(jobs.size(), 1u);
}

}  // namespace
}  // namespace optimus
