#include "src/sched/synergy_allocator.h"

#include <algorithm>

namespace optimus {

SynergyAllocator::SynergyAllocator(SynergyAllocatorOptions options)
    : options_(options) {
  OptimusAllocatorOptions inner;
  inner.stats = options_.stats;
  inner_ = OptimusAllocator(inner);
}

Resources SynergyAllocator::DeflateDemand(const Resources& demand,
                                          double cpu_sensitivity,
                                          double mem_sensitivity,
                                          double min_provision) {
  const auto scale = [min_provision](double sensitivity) {
    sensitivity = std::clamp(sensitivity, 0.0, 1.0);
    return min_provision + (1.0 - min_provision) * sensitivity;
  };
  Resources out = demand;
  out.Set(ResourceType::kCpu, demand.cpu() * scale(cpu_sensitivity));
  out.Set(ResourceType::kMemoryGb, demand.memory_gb() * scale(mem_sensitivity));
  return out;
}

std::vector<Allocation> SynergyAllocator::Allocate(const std::vector<SchedJob>& jobs,
                                                   const Resources& capacity,
                                                   SpeedSurfaceSet* surfaces) const {
  std::vector<SchedJob> deflated = jobs;
  for (SchedJob& sj : deflated) {
    if (sj.cpu_sensitivity >= 1.0 && sj.mem_sensitivity >= 1.0) {
      continue;  // fully sensitive: demands unchanged
    }
    sj.worker_demand = DeflateDemand(sj.worker_demand, sj.cpu_sensitivity,
                                     sj.mem_sensitivity, options_.min_provision);
    sj.ps_demand = DeflateDemand(sj.ps_demand, sj.cpu_sensitivity,
                                 sj.mem_sensitivity, options_.min_provision);
  }
  // Speed estimates, caps and job ids are untouched, so the surfaces
  // memoize exactly as in a plain Optimus round.
  return inner_.Allocate(deflated, capacity, surfaces);
}

}  // namespace optimus
