// Wall-clock phase profiling: named accumulators + an RAII scope timer.
//
// Subsumes the ad-hoc `wall_*` chrono blocks the simulator used to carry:
// each phase is registered once, timed with ScopedTimer around the phase
// body, and read back as accumulated host seconds. Wall times are profiling
// data only — they never feed back into simulated time or decisions, and
// when exposed through a MetricsRegistry the gauges are flagged `profiling`
// so determinism comparisons and golden snapshots exclude them.

#ifndef SRC_OBS_PHASE_PROFILER_H_
#define SRC_OBS_PHASE_PROFILER_H_

#include <chrono>
#include <string>
#include <vector>

#include "src/obs/metrics_registry.h"

namespace optimus {

class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  // The registry's gauge views hold this profiler's address.
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  // Registers a phase and returns its index (registration order). When a
  // registry is attached, also registers a profiling gauge named
  // `<prefix><name>_seconds` that views the accumulated total.
  int RegisterPhase(const std::string& name);

  // Exposes phase totals in `registry` as profiling gauge views. Call before
  // RegisterPhase; pass nullptr (default state) for a standalone profiler.
  // The profiler must outlive the registry's readers.
  void AttachRegistry(MetricsRegistry* registry, const std::string& prefix);

  // Adds `seconds` to the phase total (ScopedTimer calls this on scope exit).
  void Add(int phase, double seconds) { phases_[phase].seconds += seconds; }

  double seconds(int phase) const { return phases_[phase].seconds; }
  const std::string& name(int phase) const { return phases_[phase].name; }
  int num_phases() const { return static_cast<int>(phases_.size()); }

 private:
  struct Phase {
    std::string name;
    double seconds = 0.0;
  };

  std::vector<Phase> phases_;
  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
};

// Accumulates the wall time of its scope into one profiler phase.
class ScopedTimer {
 public:
  ScopedTimer(PhaseProfiler* profiler, int phase)
      : profiler_(profiler), phase_(phase),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto end = std::chrono::steady_clock::now();
    profiler_->Add(phase_, std::chrono::duration<double>(end - start_).count());
  }

 private:
  PhaseProfiler* profiler_;
  int phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace optimus

#endif  // SRC_OBS_PHASE_PROFILER_H_
