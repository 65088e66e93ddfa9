// The job record (docs/SCENARIOS.md): a scenario's top-level "jobs" array
// holds one JSON object per job with every JobSpec field. EncodeJobRecords
// writes it, ParseScenario reads it, and JobSpec::Validate holds every rule
// and cap a job meets, whichever door it came in by.
//
// Here: the record's round trip (field by field, and as a whole run: every
// committed scenario replays from its dump with the same RunFingerprint),
// the reader's positioned rejections, each Validate rule at its boundary,
// and a seeded fuzzer over the scenario DSL and the record.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/job.h"
#include "src/common/rng.h"
#include "src/models/model_zoo.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

namespace optimus {
namespace {

std::string ScenarioDir() { return std::string(OPTIMUS_SOURCE_DIR) + "/scenarios/"; }

// Every committed scenario file (scenarios/*.json and scenarios/smoke/*.json),
// as path under scenarios/ and text, in path order.
std::vector<std::pair<std::string, std::string>> CommittedScenarios() {
  std::vector<std::pair<std::string, std::string>> files;
  for (const char* dir : {"", "smoke/"}) {
    for (const auto& entry : std::filesystem::directory_iterator(ScenarioDir() + dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        std::ifstream in(entry.path());
        files.emplace_back(dir + entry.path().filename().string(),
                           std::string(std::istreambuf_iterator<char>(in), {}));
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// A one-policy scenario whose jobs are `jobs_json`, the "jobs" value.
std::string JobsScenario(const std::string& jobs_json) {
  return "{\"schema\": \"scenario-v2\", \"name\": \"jobs\", \"policy\": \"optimus\",\n"
         "\"jobs\": " +
         jobs_json + "}\n";
}

bool ReadJobs(const std::string& jobs_json, std::vector<JobSpec>* jobs, std::string* error) {
  ScenarioSpec spec;
  if (!ParseScenario(JobsScenario(jobs_json), "jobs.json", &spec, error)) {
    return false;
  }
  *jobs = spec.JobsForRepeat(0);
  return true;
}

// `text` with its top-level "workload" member replaced by "jobs": `jobs_json`
// (the scenario's cluster, fabric, faults and knobs kept as written).
std::string WithJobs(const std::string& text, const std::string& jobs_json) {
  const size_t key = text.find("\"workload\"");
  if (key == std::string::npos) {
    return text.substr(0, text.rfind('}')) + ",\n\"jobs\": " + jobs_json + "}\n";
  }
  size_t end = text.find('{', key);
  for (int depth = 0; end < text.size(); ++end) {
    depth += text[end] == '{' ? 1 : text[end] == '}' ? -1 : 0;
    if (depth == 0) {
      break;
    }
  }
  return text.substr(0, key) + "\"jobs\": " + jobs_json + text.substr(end + 1);
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

// Every field, doubles bit for bit, survives the dump and the read, including
// the ones a generator never sets (lr_drop, per-job batch sizes) and the
// all-reduce jobs' nonzero ps_demand.
TEST(JobRecordTest, RoundTripPreservesWorkload) {
  WorkloadSpec workload;
  workload.num_jobs = 12;
  workload.allreduce_fraction = 0.5;
  workload.sizes.kind = JobSizeSpec::Kind::kLognormal;
  workload.batch_min = 64;
  workload.batch_max = 512;
  workload.cpu_sensitivity = 0.3;
  workload.worker_demand = Resources(3.1, 12.5, 1, 0.1);
  Rng rng(5);
  std::vector<JobSpec> original = GenerateJobs(workload, &rng);
  original[3].lr_drop = LearningRateDrop{4.5, 0.7, 0.01};
  original[4].global_batch = 96;
  original[5].async_minibatch = 7;
  original[6].mem_sensitivity = 0.1;

  std::vector<JobSpec> restored;
  std::string error;
  ASSERT_TRUE(ReadJobs(EncodeJobRecords(original), &restored, &error)) << error;
  ASSERT_EQ(restored.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE(i);
    const JobSpec& a = original[i];
    const JobSpec& b = restored[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.comm, b.comm);
    EXPECT_EQ(a.arrival_time_s, b.arrival_time_s);
    EXPECT_EQ(a.convergence_delta, b.convergence_delta);
    EXPECT_EQ(a.patience, b.patience);
    EXPECT_EQ(a.global_batch, b.global_batch);
    EXPECT_EQ(a.async_minibatch, b.async_minibatch);
    EXPECT_TRUE(a.worker_demand == b.worker_demand);
    EXPECT_TRUE(a.ps_demand == b.ps_demand);
    EXPECT_EQ(a.dataset_scale, b.dataset_scale);
    EXPECT_EQ(a.max_ps, b.max_ps);
    EXPECT_EQ(a.max_workers, b.max_workers);
    ASSERT_EQ(a.lr_drop.has_value(), b.lr_drop.has_value());
    if (a.lr_drop.has_value()) {
      EXPECT_EQ(a.lr_drop->epoch, b.lr_drop->epoch);
      EXPECT_EQ(a.lr_drop->c0, b.lr_drop->c0);
      EXPECT_EQ(a.lr_drop->c2, b.lr_drop->c2);
    }
    EXPECT_EQ(a.batch_min, b.batch_min);
    EXPECT_EQ(a.batch_max, b.batch_max);
    EXPECT_EQ(a.cpu_sensitivity, b.cpu_sensitivity);
    EXPECT_EQ(a.mem_sensitivity, b.mem_sensitivity);
  }
  // The dump is the reader's fixed point.
  EXPECT_EQ(EncodeJobRecords(restored), EncodeJobRecords(original));
}

// Repeat 0 of every committed scenario under every policy of the table runs
// the same from its dump, spliced into the scenario in place of its
// workload, as from its generator: equal RunFingerprints.
TEST(JobRecordTest, EveryCommittedScenarioReplaysFromItsDump) {
  int cells = 0;
  for (const auto& [file, text] : CommittedScenarios()) {
    SCOPED_TRACE(file);
    ScenarioSpec generated;
    std::string error;
    ASSERT_TRUE(ParseScenario(text, file, &generated, &error)) << error;
    const std::vector<JobSpec> jobs = generated.JobsForRepeat(0);
    ScenarioSpec replayed;
    ASSERT_TRUE(ParseScenario(WithJobs(text, EncodeJobRecords(jobs)), file, &replayed, &error))
        << error;
    ASSERT_EQ(replayed.jobs.size(), jobs.size());
    EXPECT_EQ(replayed.workload.num_jobs, generated.workload.num_jobs);
    for (const SchedulerPolicyInfo& info : Policies()) {
      const std::string policy = info.name;
      SCOPED_TRACE(policy);
      auto run = [&policy](const ScenarioSpec& scenario) {
        Simulator sim(scenario.MakeSimConfig(policy, 0), scenario.cluster.Build(),
                      scenario.JobsForRepeat(0));
        sim.Run();
        return RunFingerprint::Of(sim);
      };
      std::string why;
      EXPECT_TRUE(run(replayed).Matches(run(generated), &why)) << "diverged on " << why;
      ++cells;
    }
  }
  EXPECT_GE(cells, 90);
}

TEST(JobRecordTest, SortsByArrival) {
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadJobs(R"([{"id": 0, "model": "ResNet-50", "arrival_s": 500},
                           {"id": 1, "model": "CNN-rand", "arrival_s": 100},
                           {"id": 2, "model": "DSSM", "arrival_s": 100}])",
                       &jobs, &error))
      << error;
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].id, 1);  // earlier arrival first; ties keep file order
  EXPECT_EQ(jobs[1].id, 2);
  EXPECT_EQ(jobs[2].id, 0);
}

// Omitted keys take JobSpec's defaults, and the container demands
// WorkloadSpec's, like a generated job's.
TEST(JobRecordTest, OmittedKeysTakeTheDefaults) {
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadJobs(R"([{"id": 4, "model": "DSSM"}])", &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 1u);
  JobSpec expected;
  expected.id = 4;
  expected.model = &FindModel("DSSM");
  expected.worker_demand = WorkloadSpec{}.worker_demand;
  expected.ps_demand = WorkloadSpec{}.ps_demand;
  EXPECT_EQ(EncodeJobRecords(jobs), EncodeJobRecords({expected}));
}

// The explicit jobs are the scenario's workload: its count is theirs, a
// scenario holding both keys is rejected, and an empty array is too.
TEST(JobRecordTest, JobsReplaceTheWorkload) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenario(JobsScenario(R"([{"id": 0, "model": "DSSM"},
                                             {"id": 7, "model": "Seq2Seq"}])"),
                            "t", &spec, &error))
      << error;
  EXPECT_EQ(spec.workload.num_jobs, 2);
  EXPECT_EQ(spec.JobsForRepeat(0).size(), 2u);
  EXPECT_EQ(spec.JobsForRepeat(3)[1].id, 7);

  EXPECT_FALSE(ParseScenario(
      R"({"schema": "scenario-v2", "name": "x", "policy": "optimus",
          "workload": {"jobs": 2}, "jobs": [{"id": 0, "model": "DSSM"}]})",
      "t", &spec, &error));
  EXPECT_NE(error.find("t:2:44: scenario.jobs: give either jobs or workload, not both"),
            std::string::npos)
      << error;
  EXPECT_FALSE(ParseScenario(JobsScenario("[]"), "t", &spec, &error));
  EXPECT_NE(error.find("t:2:9: jobs: must be >= 1"),
            std::string::npos)
      << error;
}

TEST(JobRecordTest, RejectsUnknownModel) {
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadJobs(R"([{"id": 0, "model": "GPT-7"}])", &jobs, &error));
  EXPECT_NE(error.find("jobs.json:2:29: jobs[0].model: unknown model \"GPT-7\""),
            std::string::npos)
      << error;
}

TEST(JobRecordTest, RejectsBadMode) {
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadJobs(R"([{"id": 0, "model": "DSSM", "mode": "halfsync"}])", &jobs, &error));
  EXPECT_NE(error.find("jobs[0].mode: unknown mode \"halfsync\" (expected async, sync)"),
            std::string::npos)
      << error;
}

// Every record needs an id and a model.
TEST(JobRecordTest, RejectsMissingIdOrModel) {
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadJobs(R"([{"model": "DSSM"}, {"id": 1}])", &jobs, &error));
  EXPECT_NE(error.find("jobs[0].id: missing"), std::string::npos) << error;
  EXPECT_NE(error.find("jobs[1].model: missing"), std::string::npos) << error;
}

// A typo'd key is an error, not a default, and the allowed set is listed.
TEST(JobRecordTest, RejectsUnknownKeys) {
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ReadJobs(R"([{"id": 0, "model": "DSSM", "max_worker": 4}])", &jobs, &error));
  EXPECT_NE(error.find("jobs[0]: unknown key \"max_worker\" (allowed: id, model,"),
            std::string::npos)
      << error;
  EXPECT_FALSE(ReadJobs(R"([[0, "DSSM"]])", &jobs, &error));
  EXPECT_NE(error.find("jobs[0]: expected an object, got array"), std::string::npos)
      << error;
}

// Each bad value in the second record fails with an error positioned at it
// and naming jobs[1] and its field, or, for a number JSON cannot hold, with
// the JSON reader's position.
TEST(JobRecordTest, RejectsOutOfRangeValues) {
  const struct {
    const char* fields;
    const char* want;
  } cases[] = {
      {R"("convergence_delta": -0.02)", "jobs[1].convergence_delta: must be in (0, 1]"},
      {R"("convergence_delta": 1.5)", "jobs[1].convergence_delta: must be in (0, 1]"},
      {R"("arrival_s": null)", "jobs[1].arrival_s: expected a number, got null"},
      {R"("arrival_s": -1)", "jobs[1].arrival_s: must be finite and >= 0"},
      {R"("dataset_scale": 1e999)", "jobs.json:3:24: malformed number '1e999'"},
      {R"("dataset_scale": 0)", "jobs[1].dataset_scale: must be finite and > 0"},
      {R"("max_workers": "16x")", "jobs[1].max_workers: expected an integer, got string"},
      {R"("max_ps": 4294967312)", "jobs[1].max_ps: expected an integer in int range"},
      {R"("max_workers": 1000000000)",
       "jobs.json:3:17: jobs[1].max_workers: max(max_ps, 1) * max_workers must be <= 1048576"},
      {R"("max_ps": 16, "max_workers": 65537)", "jobs[1].max_workers: max(max_ps, 1)"},
      {R"("dataset_scale": 1e300)",
       "jobs[1].dataset_scale: steps per epoch must be <= 9007199254740992"},
      {R"("dataset_scale": 1e9)",
       "jobs[1].dataset_scale: dataset bytes must be <= 140737488355328"},
      {R"("patience": 0)", "jobs[1].patience: must be >= 1"},
      {R"("comm": "allreduce", "mode": "async")",
       "jobs[1].comm: allreduce jobs are always synchronous (mode must be sync)"},
      {R"("worker_demand": {"cpu": -1})",
       "jobs[1].worker_demand: every resource must be finite and >= 0"},
      {R"("lr_drop": {"epoch": 0, "c0": 1})", "jobs[1].lr_drop: need epoch > 0"},
      {R"("id": -3)", "jobs[1].id: must be in [0, 2147483646]"},
      {R"("id": 0)", "jobs.json:3:8: jobs[1].id: duplicate id 0 (first at jobs[0])"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.fields);
    // The case's fields come first; an id follows unless the case sets one.
    const bool has_id = std::string(c.fields).find("\"id\"") != std::string::npos;
    const std::string second = std::string("{") + c.fields +
                               (has_id ? "" : ", \"id\": 1") + ", \"model\": \"DSSM\"}";
    std::vector<JobSpec> jobs;
    std::string error;
    EXPECT_FALSE(ReadJobs("[{\"id\": 0, \"model\": \"DSSM\"},\n" + second + "]", &jobs, &error));
    EXPECT_NE(error.find(c.want), std::string::npos) << error;
  }
}

// The grid cap is inclusive: 16 x 65536 = 2^20 cells loads.
TEST(JobRecordTest, AcceptsAGridAtTheCap) {
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(ReadJobs(R"([{"id": 0, "model": "DSSM", "max_ps": 16, "max_workers": 65536}])",
                       &jobs, &error))
      << error;
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(JobGridCells(jobs[0].max_ps, jobs[0].max_workers), kMaxJobGridCells);
}

// ---------------------------------------------------------------------------
// JobSpec::Validate
// ---------------------------------------------------------------------------

// The largest double x with value(x) <= cap, walked from `guess` one
// representable step at a time (value is monotone in x).
double LargestWithin(const std::function<double(double)>& value, double cap, double guess) {
  double x = guess;
  while (value(x) > cap) {
    x = std::nextafter(x, 0.0);
  }
  while (value(std::nextafter(x, HUGE_VAL)) <= cap) {
    x = std::nextafter(x, HUGE_VAL);
  }
  return x;
}

// Each rule at its boundary (no message for it) and one step past it (a
// message naming its field). The steps cap sits past the bytes cap for every
// zoo model, so its boundary is checked for its own message only.
TEST(JobSpecValidateTest, EachRuleHoldsAtItsBoundaryAndFailsOneStepPast) {
  JobSpec base;
  base.model = &FindModel("DSSM");
  base.dataset_scale = 0.01;
  base.worker_demand = WorkloadSpec{}.worker_demand;
  base.ps_demand = WorkloadSpec{}.ps_demand;
  ASSERT_TRUE(base.Validate(nullptr));

  auto steps = [&base](double scale) {
    JobSpec s = base;
    s.dataset_scale = scale;
    return s.ExactStepsPerEpoch();
  };
  auto bytes = [&base](double scale) { return ExactDatasetBytes(*base.model, scale); };
  const double steps_scale =
      LargestWithin(steps, static_cast<double>(kMaxStepsPerEpoch),
                    static_cast<double>(kMaxStepsPerEpoch) / steps(1.0));
  const double bytes_scale = LargestWithin(bytes, static_cast<double>(kMaxDatasetBytes),
                                           static_cast<double>(kMaxDatasetBytes) / bytes(1.0));
  const double drop_loss = LossCurve(base.model->loss, 1).TrueLossAtEpoch(2.0);
  const double up = HUGE_VAL;
  using Set = std::function<void(JobSpec*)>;
  const struct {
    const char* rule;
    Set at;
    Set past;
  } cases[] = {
      {"id:", [](JobSpec* s) { s->id = 0; }, [](JobSpec* s) { s->id = -1; }},
      {"id:", [](JobSpec* s) { s->id = std::numeric_limits<int>::max() - 1; },
       [](JobSpec* s) { s->id = std::numeric_limits<int>::max(); }},
      {"model:", [](JobSpec*) {}, [](JobSpec* s) { s->model = nullptr; }},
      {"comm:",
       [](JobSpec* s) {
         s->comm = CommMode::kAllReduce;
         s->mode = TrainingMode::kSync;
       },
       [](JobSpec* s) {
         s->comm = CommMode::kAllReduce;
         s->mode = TrainingMode::kAsync;
       }},
      {"arrival_s:", [](JobSpec* s) { s->arrival_time_s = 0.0; },
       [](JobSpec* s) { s->arrival_time_s = -std::numeric_limits<double>::denorm_min(); }},
      {"arrival_s:", [](JobSpec* s) { s->arrival_time_s = std::numeric_limits<double>::max(); },
       [](JobSpec* s) { s->arrival_time_s = HUGE_VAL; }},
      {"convergence_delta:", [](JobSpec* s) { s->convergence_delta = 1.0; },
       [up](JobSpec* s) { s->convergence_delta = std::nextafter(1.0, up); }},
      {"convergence_delta:",
       [](JobSpec* s) { s->convergence_delta = std::numeric_limits<double>::denorm_min(); },
       [](JobSpec* s) { s->convergence_delta = 0.0; }},
      {"patience:", [](JobSpec* s) { s->patience = 1; }, [](JobSpec* s) { s->patience = 0; }},
      {"global_batch:", [](JobSpec* s) { s->global_batch = 0; },
       [](JobSpec* s) { s->global_batch = -1; }},
      {"async_minibatch:", [](JobSpec* s) { s->async_minibatch = 0; },
       [](JobSpec* s) { s->async_minibatch = -1; }},
      {"worker_demand:", [](JobSpec* s) { s->worker_demand = Resources(0, 0, 0, 0); },
       [](JobSpec* s) { s->worker_demand = Resources(0, -0.5, 0, 0); }},
      {"ps_demand:", [](JobSpec* s) { s->ps_demand = Resources(0, 0, 0, 0); },
       [](JobSpec* s) { s->ps_demand = Resources(0, 0, 0, HUGE_VAL); }},
      {"dataset_scale: must", [](JobSpec* s) { s->dataset_scale = 1e-300; },
       [](JobSpec* s) { s->dataset_scale = 0.0; }},
      {"dataset_scale: steps per epoch", [=](JobSpec* s) { s->dataset_scale = steps_scale; },
       [=](JobSpec* s) { s->dataset_scale = std::nextafter(steps_scale, up); }},
      {"dataset_scale: dataset bytes", [=](JobSpec* s) { s->dataset_scale = bytes_scale; },
       [=](JobSpec* s) { s->dataset_scale = std::nextafter(bytes_scale, up); }},
      {"max_ps: must", [](JobSpec* s) { s->max_ps = 1; }, [](JobSpec* s) { s->max_ps = 0; }},
      {"max_workers: must", [](JobSpec* s) { s->max_workers = 1; },
       [](JobSpec* s) { s->max_workers = 0; }},
      {"max_workers: max(max_ps, 1) * max_workers must be <= 1048576",
       [](JobSpec* s) {
         s->max_ps = 16;
         s->max_workers = 65536;
       },
       [](JobSpec* s) {
         s->max_ps = 16;
         s->max_workers = 65537;
       }},
      {"lr_drop:", [](JobSpec* s) { s->lr_drop = LearningRateDrop{2.0, 1e-300, 0.0}; },
       [](JobSpec* s) { s->lr_drop = LearningRateDrop{2.0, 0.0, 0.0}; }},
      {"lr_drop:",
       [=](JobSpec* s) { s->lr_drop = LearningRateDrop{2.0, 1.0, std::nextafter(drop_loss, 0.0)}; },
       [=](JobSpec* s) { s->lr_drop = LearningRateDrop{2.0, 1.0, drop_loss}; }},
      {"lr_drop:", [](JobSpec* s) { s->lr_drop = LearningRateDrop{1e-300, 1.0, 0.0}; },
       [](JobSpec* s) { s->lr_drop = LearningRateDrop{0.0, 1.0, 0.0}; }},
      {"batch_min: must be >= 0", [](JobSpec* s) { s->batch_min = 0; },
       [](JobSpec* s) { s->batch_min = -1; }},
      {"batch_max: must be >= 0", [](JobSpec* s) { s->batch_max = 0; },
       [](JobSpec* s) { s->batch_max = -1; }},
      {"batch_min: must be <= batch_max",
       [](JobSpec* s) {
         s->batch_min = 128;
         s->batch_max = 128;
       },
       [](JobSpec* s) {
         s->batch_min = 129;
         s->batch_max = 128;
       }},
      {"cpu_sensitivity:", [](JobSpec* s) { s->cpu_sensitivity = 1.0; },
       [up](JobSpec* s) { s->cpu_sensitivity = std::nextafter(1.0, up); }},
      {"mem_sensitivity:", [](JobSpec* s) { s->mem_sensitivity = 1.0; },
       [up](JobSpec* s) { s->mem_sensitivity = std::nextafter(1.0, up); }},
  };
  auto names_rule = [](const JobSpec& spec, const std::string& rule) {
    std::vector<std::string> errors;
    spec.Validate(&errors);
    return std::any_of(errors.begin(), errors.end(),
                       [&](const std::string& e) { return e.rfind(rule, 0) == 0; });
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.rule);
    JobSpec at = base;
    c.at(&at);
    EXPECT_FALSE(names_rule(at, c.rule));
    JobSpec past = base;
    c.past(&past);
    EXPECT_TRUE(names_rule(past, c.rule));
    EXPECT_FALSE(past.Validate(nullptr));
  }

  // kMaxJobs bounds a generated workload's count (and, in the reader, a jobs
  // array's length).
  WorkloadSpec workload;
  workload.num_jobs = static_cast<int>(kMaxJobs);
  EXPECT_TRUE(workload.Validate(nullptr));
  workload.num_jobs = static_cast<int>(kMaxJobs) + 1;
  std::vector<std::string> errors;
  EXPECT_FALSE(workload.Validate(&errors));
  EXPECT_EQ(errors, std::vector<std::string>{"jobs: must be <= 16777216"});
}

// Nothing is built for a valid spec: the messages exist only for errors.
TEST(JobSpecValidateTest, ValidSpecAppendsNothing) {
  JobSpec spec;
  spec.model = &FindModel("ResNet-50");
  std::vector<std::string> errors = {"kept"};
  EXPECT_TRUE(spec.Validate(&errors));
  EXPECT_EQ(errors, std::vector<std::string>{"kept"});
}

// ---------------------------------------------------------------------------
// Fuzzing the scenario DSL and the record
// ---------------------------------------------------------------------------

// Spans of the number and keyword tokens outside string literals.
std::vector<std::pair<size_t, size_t>> ValueTokens(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c)) || c == 't' ||
               c == 'f' || c == 'n') {
      size_t j = i;
      while (j < text.size() && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                                 text[j] == '-' || text[j] == '+' || text[j] == '.')) {
        ++j;
      }
      spans.emplace_back(i, j);
      i = j - 1;
    }
  }
  return spans;
}

// Spans of the "key": tokens.
std::vector<std::pair<size_t, size_t>> KeyTokens(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  static const std::regex kKey(R"("[a-z_0-9]+"\s*:)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kKey);
       it != std::sregex_iterator(); ++it) {
    spans.emplace_back(it->position(), it->position() + it->str().find('"', 1) + 1);
  }
  return spans;
}

// One random edit: a value replaced by a numeric extreme or another type, two
// keys or two values swapped, a character dropped or doubled, or a line
// repeated (in the jobs seed, one record: a duplicate id, or a missing comma).
std::string Mutate(const std::string& text, Rng* rng) {
  static const char* const kExtremes[] = {
      "1e300",      "-1e308",     "1e-320",     "2147483647", "2147483648", "-2147483649",
      "9007199254740993",         "0",          "-0",         "1e999",      "null",
      "\"x\"",      "65537",      "1000000000", "-1",         "0.5",        "16777216",
      "16777217",   "2000000000", "true",       "[]",         "{}",         "1e-300",
      "1e19",       "1e30"};
  auto pick = [rng](size_t n) { return static_cast<size_t>(rng->UniformInt(0, n - 1)); };
  std::string s = text;
  const std::vector<std::pair<size_t, size_t>> values = ValueTokens(s);
  const std::vector<std::pair<size_t, size_t>> keys = KeyTokens(s);
  switch (rng->UniformInt(0, 5)) {
    case 0:
    case 1: {
      if (values.empty()) {
        break;
      }
      const auto [b, e] = values[pick(values.size())];
      s.replace(b, e - b, kExtremes[pick(std::size(kExtremes))]);
      break;
    }
    case 2: {
      const std::vector<std::pair<size_t, size_t>>& spans = rng->Bernoulli(0.5) ? keys : values;
      if (spans.size() < 2) {
        break;
      }
      size_t i = pick(spans.size());
      size_t j = pick(spans.size());
      if (i == j) {
        break;
      }
      if (i > j) {
        std::swap(i, j);
      }
      const std::string a = s.substr(spans[i].first, spans[i].second - spans[i].first);
      const std::string b = s.substr(spans[j].first, spans[j].second - spans[j].first);
      s.replace(spans[j].first, b.size(), a);  // the later span first: offsets hold
      s.replace(spans[i].first, a.size(), b);
      break;
    }
    case 3:
      if (!s.empty()) {
        const size_t i = pick(s.size());
        if (rng->Bernoulli(0.5)) {
          s.erase(i, 1);
        } else {
          s.insert(i, 1, s[i]);
        }
      }
      break;
    default: {
      std::vector<size_t> starts = {0};
      for (size_t i = 0; i + 1 < s.size(); ++i) {
        if (s[i] == '\n') {
          starts.push_back(i + 1);
        }
      }
      const size_t line = pick(starts.size());
      const size_t end = line + 1 < starts.size() ? starts[line + 1] : s.size();
      s.insert(starts[line], s.substr(starts[line], end - starts[line]));
      break;
    }
  }
  return s;
}

// Mutated committed scenarios and a mutated 6-job record array: the parser
// never crashes; every rejection is positioned ("<source>:L:C: ") or a list
// of "field: problem" validation messages ("<source>: field: "), and every
// accepted scenario's jobs pass JobSpec::Validate.
TEST(ScenarioFuzzTest, MutatedScenariosParseOrNameTheirError) {
  std::vector<std::string> seeds;
  for (const auto& file : CommittedScenarios()) {
    seeds.push_back(file.second);
  }
  WorkloadSpec workload;
  workload.num_jobs = 6;
  workload.allreduce_fraction = 0.5;
  Rng workload_rng(11);
  std::vector<JobSpec> six = GenerateJobs(workload, &workload_rng);
  six[2].lr_drop = LearningRateDrop{3.0, 0.5, 0.01};
  six[4].batch_min = 32;
  six[4].batch_max = 256;
  // A bursty workload, whose Poisson mean the extremes 1e19, 1e30 and 1e300
  // take past the validated bound.
  seeds.push_back(R"({"schema": "scenario-v2", "name": "bursty", "policy": "optimus",
"workload": {"jobs": 6, "arrivals": {"kind": "bursty", "rate_per_interval": 3,
"spike_fraction": 0.5, "spike_multiplier": 5}}})");
  seeds.push_back(JobsScenario(EncodeJobRecords(six)));
  ASSERT_GE(seeds.size(), 12u);

  const std::regex positioned(R"(^fuzz\.json:\d+:\d+: )");
  const std::regex validation(R"(^fuzz\.json: [a-z_]+[a-z_0-9.\[\]]*: )");
  Rng rng(0x5ce7a);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const bool jobs_seed = rng.Bernoulli(0.5);
    std::string text =
        jobs_seed ? seeds.back()
                  : seeds[static_cast<size_t>(rng.UniformInt(0, seeds.size() - 2))];
    for (int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      text = Mutate(text, &rng);
    }
    ScenarioSpec spec;
    std::string error;
    if (!ParseScenario(text, "fuzz.json", &spec, &error)) {
      ++rejected;
      EXPECT_TRUE(std::regex_search(error, positioned) || std::regex_search(error, validation))
          << text << "\nerror: " << error;
    } else {
      ++accepted;
      // A generated workload is drawn only while small: a mutated count can
      // reach kMaxJobs.
      if (!spec.jobs.empty() || spec.workload.num_jobs <= 500) {
        for (const JobSpec& job : spec.JobsForRepeat(0)) {
          std::vector<std::string> errors;
          EXPECT_TRUE(job.Validate(&errors))
              << text << "\njob " << job.id << ": " << (errors.empty() ? "" : errors[0]);
        }
      }
    }
    if (HasFailure()) {
      break;  // one failing file is enough to read
    }
  }
  // Both sides of the parser were exercised.
  EXPECT_GT(accepted, 600);
  EXPECT_GT(rejected, 1200);
}

}  // namespace
}  // namespace optimus
