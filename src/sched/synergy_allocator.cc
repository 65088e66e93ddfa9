#include "src/sched/synergy_allocator.h"

#include <algorithm>

namespace optimus {

namespace {

// Provisioning floor: even a fully insensitive job keeps this fraction of its
// CPU/memory demand (it still needs to feed its GPUs eventually).
constexpr double kMinProvision = 0.25;

}  // namespace

Resources SynergyAllocator::DeflateDemand(const Resources& demand,
                                          double cpu_sensitivity,
                                          double mem_sensitivity) {
  const auto scale = [](double sensitivity) {
    sensitivity = std::clamp(sensitivity, 0.0, 1.0);
    return kMinProvision + (1.0 - kMinProvision) * sensitivity;
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
    sj.worker_demand =
        DeflateDemand(sj.worker_demand, sj.cpu_sensitivity, sj.mem_sensitivity);
    sj.ps_demand = DeflateDemand(sj.ps_demand, sj.cpu_sensitivity, sj.mem_sensitivity);
  }
  // Speed estimates, caps and job ids are untouched, so the surfaces
  // memoize exactly as in a plain Optimus round.
  return inner_.Allocate(deflated, capacity, surfaces);
}

}  // namespace optimus
