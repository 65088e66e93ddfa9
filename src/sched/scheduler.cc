#include "src/sched/scheduler.h"

namespace optimus {

SchedJob SchedJobHeader(const JobSpec& spec) {
  SchedJob sj;
  sj.job_id = spec.id;
  sj.mode = spec.mode;
  sj.comm = spec.comm;
  sj.worker_demand = spec.worker_demand;
  sj.ps_demand = spec.ps_demand;
  sj.max_ps = spec.max_ps;
  sj.max_workers = spec.max_workers;
  if (spec.comm == CommMode::kAllReduce) {
    sj.max_ps = 0;
    sj.ps_demand = Resources();
  }
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
