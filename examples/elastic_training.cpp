// Elastic training walkthrough: one ResNet-50 job, followed interval by
// interval.
//
// Shows the full Optimus lifecycle on a single job: the (p, w) pre-run that
// initializes the speed model, the online convergence fitting that sharpens
// the remaining-epochs estimate, the checkpoint-based resource rescaling, and
// a mid-training learning-rate drop that restarts the convergence fitter
// (§7 extension).
//
//   ./examples/elastic_training

#include <iostream>

#include "src/cluster/server.h"
#include "src/common/table.h"
#include "src/sim/simulator.h"

int main() {
  using namespace optimus;

  JobSpec spec;
  spec.id = 0;
  spec.model = &FindModel("ResNet-50");
  spec.mode = TrainingMode::kSync;
  spec.patience = 3;
  spec.worker_demand = Resources(2.5, 10, 0, 0.15);
  spec.ps_demand = Resources(2.5, 10, 0, 0.15);
  spec.dataset_scale = 0.002;  // downscaled dataset, as in the paper's testbed
  spec.max_ps = 16;
  spec.max_workers = 16;
  spec.convergence_delta = 0.01;
  // Learning-rate decay at epoch 10: loss drops onto a steeper curve and the
  // online convergence model restarts.
  spec.lr_drop = LearningRateDrop{.epoch = 10.0, .c0 = 0.8, .c2 = 0.4};

  // Two competing DeepSpeech2 jobs arrive mid-training, forcing Optimus to
  // elastically shrink the primary job, then grow it back when they finish.
  std::vector<JobSpec> jobs = {spec};
  for (int i = 1; i <= 2; ++i) {
    JobSpec rival;
    rival.id = i;
    rival.model = &FindModel("DeepSpeech2");
    rival.mode = TrainingMode::kSync;
    rival.convergence_delta = 0.05;
    rival.patience = 2;
    rival.worker_demand = spec.worker_demand;
    rival.ps_demand = spec.ps_demand;
    rival.dataset_scale = 0.01;
    rival.arrival_time_s = 1800.0 * i;
    rival.max_ps = 16;
    rival.max_workers = 16;
    jobs.push_back(rival);
  }

  SimulatorConfig config;
  config.seed = 3;

  Simulator sim(config, BuildTestbed(), jobs);

  std::cout << "Elastic training of one " << spec.model->name << " job ("
            << TrainingModeName(spec.mode) << ", delta=" << spec.convergence_delta
            << ", LR drop at epoch 10) with two DeepSpeech2 rivals arriving later\n\n";

  TablePrinter table({"t (s)", "state", "p", "w", "epochs", "loss", "scalings",
                      "stall (s)"});
  JobSnapshot job;
  while (true) {
    sim.AdvanceTo(sim.now_s() + config.interval_s);
    const bool more = sim.metrics().completed_jobs < sim.metrics().total_jobs &&
                      sim.now_s() < config.max_sim_time_s;
    job = sim.job(0);
    table.AddRow({TablePrinter::FormatDouble(sim.now_s(), 0), JobStateName(job.state),
                  std::to_string(job.num_ps), std::to_string(job.num_workers),
                  TablePrinter::FormatDouble(job.epochs_done, 1),
                  TablePrinter::FormatDouble(job.last_epoch_loss, 4),
                  std::to_string(job.num_scalings),
                  TablePrinter::FormatDouble(job.total_stall_s, 0)});
    if (!more) {
      break;
    }
  }
  table.Print(std::cout);

  std::cout << "\nJob " << (job.state == JobState::kCompleted ? "completed" : "did not complete")
            << "; JCT = " << TablePrinter::FormatDouble(job.jct_s, 0) << " s after "
            << TablePrinter::FormatDouble(job.epochs_done, 1) << " epochs, "
            << job.num_scalings << " elastic rescalings ("
            << TablePrinter::FormatDouble(job.total_stall_s, 0)
            << " s of checkpoint/restart stall).\n";
  return job.state == JobState::kCompleted ? 0 : 1;
}
