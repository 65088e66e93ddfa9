#include "src/obs/phase_profiler.h"

#include "src/common/logging.h"

namespace optimus {

void PhaseProfiler::AttachRegistry(MetricsRegistry* registry,
                                   const std::string& prefix) {
  OPTIMUS_CHECK(phases_.empty()) << "attach the registry before registering phases";
  registry_ = registry;
  prefix_ = prefix;
}

int PhaseProfiler::RegisterPhase(const std::string& name) {
  const int index = num_phases();
  phases_.push_back({name, 0.0});
  if (registry_ != nullptr) {
    registry_->AddGaugeView(
        prefix_ + name + "_seconds",
        "Accumulated host wall-clock seconds in the " + name +
            " phase (profiling only; nondeterministic).",
        [this, index] { return seconds(index); }, /*profiling=*/true);
  }
  return index;
}

}  // namespace optimus
