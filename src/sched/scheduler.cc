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

}  // namespace optimus
