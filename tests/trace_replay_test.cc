#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/data_serving.h"
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
  ASSERT_TRUE(ReadWorkloadCsv(is, &restored, &error)) << error;
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
    EXPECT_TRUE(restored[i].worker_demand == original[i].worker_demand);
    EXPECT_TRUE(restored[i].ps_demand == original[i].ps_demand);
  }
}

TEST(TraceReplayTest, SortsByArrival) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,ResNet-50,sync,500,0.02,3,0.01,16,16\n"
      "1,CNN-rand,async,100,0.03,3,0.1,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadWorkloadCsv(is, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 1);  // earlier arrival first
  EXPECT_EQ(jobs[1].id, 0);
}

TEST(TraceReplayTest, RejectsMissingHeader) {
  std::istringstream is("0,ResNet-50,sync,0,0.02,3,0.01,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, &jobs, &error));
  EXPECT_NE(error.find("header"), std::string::npos);
  EXPECT_TRUE(jobs.empty());
}

TEST(TraceReplayTest, RejectsUnknownModel) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,GPT-7,sync,0,0.02,3,0.01,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, &jobs, &error));
  EXPECT_NE(error.find("unknown model"), std::string::npos);
}

TEST(TraceReplayTest, RejectsBadMode) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,DSSM,halfsync,0,0.02,3,0.01,16,16\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, &jobs, &error));
  EXPECT_NE(error.find("unknown mode"), std::string::npos);
}

TEST(TraceReplayTest, RejectsWrongFieldCount) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,DSSM,sync,0,0.02\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadWorkloadCsv(is, &jobs, &error));
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
      {"1,DSSM,sync,0,0.02,3,0.01,16,1000000000",
       "line 3: max_workers: max(max_ps, 1) * max_workers must be <= 1048576"},
      {"1,DSSM,sync,0,0.02,3,0.01,16,65537", "line 3: max_workers: max(max_ps, 1)"},
      {"1,DSSM,sync,0,0.02,3,1e300,16,16",
       "line 3: dataset_scale: steps per epoch must be <= 9007199254740992"},
      {"1,DSSM,sync,0,0.02,3,1e9,16,16",
       "line 3: dataset_scale: dataset bytes must be <= 140737488355328"},
      {"0,DSSM,sync,0,0.02,3,0.01,16,16", "line 3: duplicate job_id 0 (first on line 2)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.row);
    std::istringstream is(header + c.row + "\n");
    std::vector<JobSpec> jobs;
    std::string error;
    EXPECT_FALSE(ReadWorkloadCsv(is, &jobs, &error));
    EXPECT_NE(error.find(c.want), std::string::npos) << error;
    EXPECT_TRUE(jobs.empty());
  }
}

// The grid cap is inclusive: 16 x 65536 = 2^20 cells loads.
TEST(TraceReplayTest, AcceptsAGridAtTheCap) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "0,DSSM,sync,0,0.02,3,0.01,16,65536\n");
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadWorkloadCsv(is, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(JobGridCells(jobs[0].max_ps, jobs[0].max_workers), kMaxJobGridCells);
}

TEST(TraceReplayTest, SkipsEmptyLines) {
  std::istringstream is(
      "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers\n"
      "\n"
      "0,DSSM,sync,0,0.02,3,0.01,16,16\n"
      "\n");
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadWorkloadCsv(is, &jobs, &error)) << error;
  EXPECT_EQ(jobs.size(), 1u);
}

// Lines of `text`, without their newlines.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines, size_t count) {
  std::string text;
  for (size_t i = 0; i < count && i < lines.size(); ++i) {
    text += lines[i] + "\n";
  }
  return text;
}

bool Parse(const std::string& text, std::vector<JobSpec>* jobs, std::string* error) {
  std::istringstream is(text);
  return ReadWorkloadCsv(is, jobs, error);
}

// One random edit to a data row (never the header): a field replaced by a
// numeric extreme or another row's field, a character dropped or doubled, a
// separator changed, a row repeated from the seed (a duplicate id), or an
// empty row inserted.
std::string MutateRow(std::vector<std::string> lines, const std::vector<std::string>& seed,
                      Rng* rng) {
  static const char* const kExtremes[] = {
      "1e300", "1e308", "-1e308", "1e-320", "4.9e-324", "2147483647", "2147483648",
      "-2147483649", "9007199254740993", "99999999999999999999", "0", "-0", "nan", "inf",
      "-inf", "", " 7", "0x10", "1.5", "-1", "65536"};
  auto pos = [&](size_t n) { return static_cast<size_t>(rng->UniformInt(0, n)); };
  const size_t row = 1 + pos(lines.size() - 2);
  auto split = [](const std::string& row) {
    std::vector<std::string> fields;
    std::istringstream is(row);
    for (std::string f; std::getline(is, f, ',');) {
      fields.push_back(f);
    }
    return fields;
  };
  std::string& s = lines[row];
  std::vector<std::string> fields = split(s);
  switch (rng->UniformInt(0, 5)) {
    case 0:
    case 1: {
      if (fields.empty()) {
        break;
      }
      const size_t col = pos(fields.size() - 1);
      const std::vector<std::string> other = split(seed[1 + pos(seed.size() - 2)]);
      fields[col] = rng->Bernoulli(0.8) || col >= other.size()
                        ? kExtremes[pos(std::size(kExtremes) - 1)]
                        : other[col];
      s.clear();
      for (size_t i = 0; i < fields.size(); ++i) {
        s += (i == 0 ? "" : ",") + fields[i];
      }
      break;
    }
    case 2:
      if (!s.empty()) {
        const size_t i = pos(s.size() - 1);
        if (rng->Bernoulli(0.5)) {
          s.erase(i, 1);
        } else {
          s.insert(i, 1, s[i]);
        }
      }
      break;
    case 3: {
      const size_t comma = s.find(',', pos(s.size()));
      if (comma != std::string::npos) {
        s[comma] = ";, \t"[pos(3)];
      }
      break;
    }
    case 4:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(row),
                   seed[1 + pos(seed.size() - 2)]);
      break;
    default:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(row), "");
      break;
  }
  return Join(lines, lines.size());
}

// Mutated valid CSVs: the reader never aborts; it either accepts the file,
// with every job inside the grid and steps-per-epoch caps and its values in
// range, or rejects it with "line N: " naming the first bad line: the rows
// before N load and the file cut after line N fails with the same message.
TEST(WorkloadCsvFuzzTest, MutatedCsvsParseOrNameTheirLine) {
  WorkloadConfig config;
  config.num_jobs = 6;
  Rng workload_rng(11);
  std::ostringstream os;
  WriteWorkloadCsv(GenerateWorkload(config, &workload_rng), os);
  const std::vector<std::string> seed = Lines(os.str());
  ASSERT_EQ(seed.size(), 7u);

  Rng rng(0xc5f);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = Join(seed, seed.size());
    for (int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      text = MutateRow(Lines(text), seed, &rng);
    }
    std::vector<JobSpec> jobs;
    std::string error;
    if (!Parse(text, &jobs, &error)) {
      ++rejected;
      const bool positioned = error.rfind("line ", 0) == 0;
      ASSERT_TRUE(positioned) << text << "error: " << error;
      const size_t n = std::strtoul(error.c_str() + 5, nullptr, 10);
      const std::vector<std::string> lines = Lines(text);
      ASSERT_GE(n, 2u) << error;
      ASSERT_LE(n, lines.size()) << error;
      std::string prefix_error;
      EXPECT_TRUE(Parse(Join(lines, n - 1), &jobs, &prefix_error))
          << text << "error: " << error << "\nbefore it: " << prefix_error;
      std::string cut_error;
      EXPECT_FALSE(Parse(Join(lines, n), &jobs, &cut_error)) << text;
      EXPECT_EQ(cut_error, error) << text;
    } else {
      ++accepted;
      for (const JobSpec& job : jobs) {
        EXPECT_LE(JobGridCells(job.max_ps, job.max_workers), kMaxJobGridCells) << text;
        EXPECT_LE(job.ExactStepsPerEpoch(), static_cast<double>(kMaxStepsPerEpoch)) << text;
        EXPECT_LE(ExactDatasetBytes(*job.model, job.dataset_scale),
                  static_cast<double>(kMaxDatasetBytes))
            << text;
        EXPECT_GT(job.convergence_delta, 0.0) << text;
        EXPECT_GE(job.patience, 1) << text;
        EXPECT_GE(job.arrival_time_s, 0.0) << text;
      }
    }
    if (HasFailure()) {
      break;  // one failing file is enough to read
    }
  }
  // Both sides of the reader were exercised.
  EXPECT_GT(accepted, 400);
  EXPECT_GT(rejected, 400);
}

}  // namespace
}  // namespace optimus
