// Admission-control scenario: before submitting a large job to a busy
// cluster, ask the scheduler's own models what would happen ("what-if"
// analysis): would the job get resources, when would it finish, and how much
// would it delay the jobs already running?
//
//   ./examples/admission_control

#include <cmath>
#include <iostream>

#include "src/common/table.h"
#include "src/models/model_zoo.h"
#include "src/pserver/comm_model.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/what_if.h"

namespace {

using namespace optimus;

// Scheduler-style job summary with a ground-truth-derived speed estimate.
SchedJob MakeJob(int id, const std::string& model_name, TrainingMode mode,
                 double remaining_epochs, int64_t steps_per_epoch) {
  const ModelSpec& model = FindModel(model_name);
  SchedJob job;
  job.job_id = id;
  job.mode = mode;
  job.worker_demand = Resources(2.5, 10, 0, 0.15);
  job.ps_demand = Resources(2.5, 10, 0, 0.15);
  job.max_ps = 16;
  job.max_workers = 16;
  job.remaining_epochs = remaining_epochs;
  // The ground-truth step-time model at the model's default batch, exact.
  StepProfile profile;
  profile.model = &model;
  profile.mode = mode;
  job.speed = SpeedEstimate::Oracle(profile, CommConfig{},
                                    static_cast<double>(steps_per_epoch), /*error=*/0.0,
                                    static_cast<double>(job.max_ps + job.max_workers));
  return job;
}

}  // namespace

int main() {
  // A cluster already running three jobs of mixed sizes.
  std::vector<SchedJob> existing = {
      MakeJob(0, "ResNext-110", TrainingMode::kSync, 25.0, 20),
      MakeJob(1, "Seq2Seq", TrainingMode::kSync, 40.0, 20),
      MakeJob(2, "CNN-rand", TrainingMode::kAsync, 8.0, 20),
  };
  const Resources capacity(75, 700, 0, 100);  // a busy cluster: ~30 containers

  std::cout << "Cluster with 3 running jobs; evaluating admission of a "
               "DeepSpeech2 job (what-if analysis using the scheduler's own "
               "marginal-gain allocation)\n";

  OptimusAllocator allocator;
  const SchedJob candidate = MakeJob(3, "DeepSpeech2", TrainingMode::kSync, 30.0, 20);
  const WhatIfResult result =
      EvaluateAdmission(allocator, existing, candidate, capacity);

  TablePrinter table({"job", "est. completion before (h)", "est. completion after (h)",
                      "delay (h)"});
  const char* names[] = {"ResNext-110", "Seq2Seq", "CNN-rand"};
  // Completion times are positional: entry i is existing[i]'s.
  for (size_t i = 0; i < existing.size(); ++i) {
    const double before = result.baseline_completion_s[i];
    const double after = result.with_job_completion_s[i];
    table.AddRow({names[i], TablePrinter::FormatDouble(before / 3600.0, 2),
                  TablePrinter::FormatDouble(after / 3600.0, 2),
                  TablePrinter::FormatDouble((after - before) / 3600.0, 2)});
  }
  table.Print(std::cout);

  if (result.admitted) {
    std::cout << "\nCandidate admitted with " << result.new_job_alloc.num_ps
              << " PS / " << result.new_job_alloc.num_workers
              << " workers; estimated completion in "
              << TablePrinter::FormatDouble(result.new_job_completion_s / 3600.0, 2)
              << " h.\nAggregate slowdown inflicted on running jobs: "
              << TablePrinter::FormatDouble(result.total_slowdown_s / 3600.0, 2)
              << " h.\n";
  } else {
    std::cout << "\nCandidate would not receive resources this interval.\n";
  }
  return 0;
}
