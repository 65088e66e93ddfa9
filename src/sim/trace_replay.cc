#include "src/sim/trace_replay.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/cluster/data_serving.h"
#include "src/common/logging.h"
#include "src/models/model_zoo.h"
#include "src/sim/workload.h"

namespace optimus {

namespace {

constexpr char kHeader[] =
    "job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers";

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) {
    out.push_back(field);
  }
  return out;
}

// Each numeric field must parse whole: "5x" is rejected, not read as 5.
bool ParseIntField(const std::string& text, int* value) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  *value = static_cast<int>(v);
  return true;
}

// As ParseIntField, and the value must be finite (no nan, inf or overflow).
bool ParseDoubleField(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && std::isfinite(*value);
}

const ModelSpec* FindModelOrNull(const std::string& name) {
  for (const ModelSpec& spec : GetModelZoo()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace

void WriteWorkloadCsv(const std::vector<JobSpec>& jobs, std::ostream& os) {
  os.precision(17);  // exact double round-trip
  os << kHeader << "\n";
  for (const JobSpec& job : jobs) {
    OPTIMUS_CHECK(job.model != nullptr);
    os << job.id << "," << job.model->name << "," << TrainingModeName(job.mode) << ","
       << job.arrival_time_s << "," << job.convergence_delta << "," << job.patience
       << "," << job.dataset_scale << "," << job.max_ps << "," << job.max_workers
       << "\n";
  }
}

bool ReadWorkloadCsv(std::istream& is, std::vector<JobSpec>* jobs,
                     std::string* error) {
  OPTIMUS_CHECK(jobs != nullptr);
  OPTIMUS_CHECK(error != nullptr);
  jobs->clear();
  error->clear();

  std::string line;
  if (!std::getline(is, line) || line.rfind("job_id,model,mode", 0) != 0) {
    *error = "missing or unrecognized header (expected '" + std::string(kHeader) + "')";
    return false;
  }

  int line_no = 1;
  std::vector<JobSpec> parsed;
  std::map<int, int> first_line;  // job id -> the line that defined it
  const std::vector<std::string> columns = SplitCsvLine(kHeader);
  const WorkloadSpec defaults;  // container demands of every imported job
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != 9) {
      *error = "line " + std::to_string(line_no) + ": expected 9 fields, got " +
               std::to_string(fields.size());
      return false;
    }
    JobSpec spec;
    const std::pair<int, int*> ints[] = {
        {0, &spec.id}, {5, &spec.patience}, {7, &spec.max_ps}, {8, &spec.max_workers}};
    const std::pair<int, double*> doubles[] = {
        {3, &spec.arrival_time_s}, {4, &spec.convergence_delta}, {6, &spec.dataset_scale}};
    for (const auto& [col, out] : ints) {
      if (!ParseIntField(fields[col], out)) {
        *error = "line " + std::to_string(line_no) + ": " + columns[col] +
                 " expects an integer, got '" + fields[col] + "'";
        return false;
      }
    }
    for (const auto& [col, out] : doubles) {
      if (!ParseDoubleField(fields[col], out)) {
        *error = "line " + std::to_string(line_no) + ": " + columns[col] +
                 " expects a finite number, got '" + fields[col] + "'";
        return false;
      }
    }
    if (const auto [it, fresh] = first_line.emplace(spec.id, line_no); !fresh) {
      *error = "line " + std::to_string(line_no) + ": duplicate job_id " +
               std::to_string(spec.id) + " (first on line " +
               std::to_string(it->second) + ")";
      return false;
    }
    spec.model = FindModelOrNull(fields[1]);
    if (spec.model == nullptr) {
      *error = "line " + std::to_string(line_no) + ": unknown model '" + fields[1] + "'";
      return false;
    }
    if (fields[2] == "sync") {
      spec.mode = TrainingMode::kSync;
    } else if (fields[2] == "async") {
      spec.mode = TrainingMode::kAsync;
    } else {
      *error = "line " + std::to_string(line_no) + ": unknown mode '" + fields[2] + "'";
      return false;
    }
    if (spec.convergence_delta <= 0.0 || spec.patience < 1 || spec.dataset_scale <= 0.0 ||
        spec.max_ps < 1 || spec.max_workers < 1 || spec.arrival_time_s < 0.0) {
      *error = "line " + std::to_string(line_no) + ": out-of-range value";
      return false;
    }
    if (JobGridCells(spec.max_ps, spec.max_workers) > kMaxJobGridCells) {
      *error = "line " + std::to_string(line_no) +
               ": max_workers: max(max_ps, 1) * max_workers must be <= " +
               std::to_string(kMaxJobGridCells);
      return false;
    }
    if (spec.ExactStepsPerEpoch() > static_cast<double>(kMaxStepsPerEpoch)) {
      *error = "line " + std::to_string(line_no) +
               ": dataset_scale: steps per epoch must be <= " + std::to_string(kMaxStepsPerEpoch);
      return false;
    }
    if (ExactDatasetBytes(*spec.model, spec.dataset_scale) >
        static_cast<double>(kMaxDatasetBytes)) {
      *error = "line " + std::to_string(line_no) +
               ": dataset_scale: dataset bytes must be <= " + std::to_string(kMaxDatasetBytes);
      return false;
    }
    spec.worker_demand = defaults.worker_demand;
    spec.ps_demand = defaults.ps_demand;
    parsed.push_back(spec);
  }

  std::stable_sort(parsed.begin(), parsed.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     return a.arrival_time_s < b.arrival_time_s;
                   });
  *jobs = std::move(parsed);
  return true;
}

}  // namespace optimus
