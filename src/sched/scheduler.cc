#include "src/sched/scheduler.h"

namespace optimus {

SchedJob MakeSchedJob(const JobSpec& spec, double remaining_epochs, SpeedEstimate speed,
                      double priority_factor, const CommConfig& comm) {
  SchedJob sj;
  sj.job_id = spec.id;
  sj.mode = spec.mode;
  sj.comm = spec.comm;
  sj.worker_demand = spec.worker_demand;
  sj.ps_demand = spec.comm == CommMode::kAllReduce ? Resources() : spec.ps_demand;
  sj.max_ps = spec.comm == CommMode::kAllReduce ? 0 : spec.max_ps;
  sj.max_workers = spec.max_workers;
  sj.remaining_epochs = remaining_epochs;
  sj.speed = speed;
  sj.priority_factor = priority_factor;
  if (spec.mode == TrainingMode::kSync) {
    sj.batch_ref = spec.GlobalBatch();
    sj.batch_min = spec.BatchMin();
    sj.batch_max = spec.BatchMax();
    sj.grad_noise_scale = spec.GradNoiseScale();
    if (sj.batch_min > 0 && sj.batch_max > sj.batch_min) {
      sj.speed = speed.WithBatchScaling(StepProfile::Of(spec), comm);
    }
  }
  sj.cpu_sensitivity = spec.CpuSensitivity();
  sj.mem_sensitivity = spec.MemSensitivity();
  return sj;
}

bool WorthRescaling(const SchedJob& job, const Allocation& current,
                    const Allocation& next, double stall_s) {
  if (!ActiveAllocation(current, job.comm) || !ActiveAllocation(next, job.comm) ||
      next == current) {
    return true;
  }
  const double f_old = job.speed(current.num_ps, current.num_workers);
  const double f_new = job.speed(next.num_ps, next.num_workers);
  if (f_old <= 0.0 || f_new <= 0.0) {
    return true;
  }
  const double t_old = job.remaining_epochs / f_old;
  const double t_new = job.remaining_epochs / f_new;
  return !(t_old - t_new < stall_s);
}

}  // namespace optimus
