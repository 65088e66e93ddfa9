#include "src/perfmodel/sampler.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "src/common/logging.h"

namespace optimus {

std::vector<std::pair<int, int>> SelectSamplePairs(int count, int max_ps,
                                                   int max_workers, Rng* rng) {
  OPTIMUS_CHECK_GE(count, 1);
  OPTIMUS_CHECK_GE(max_ps, 1);
  OPTIMUS_CHECK_GE(max_workers, 1);
  OPTIMUS_CHECK(rng != nullptr);

  const int64_t grid = static_cast<int64_t>(max_ps) * max_workers;
  count = static_cast<int>(std::min<int64_t>(count, grid));

  std::set<std::pair<int, int>> chosen;
  auto add = [&](int p, int w) {
    if (static_cast<int>(chosen.size()) < count) {
      chosen.insert({std::clamp(p, 1, max_ps), std::clamp(w, 1, max_workers)});
    }
  };

  // Anchor points covering the corners and the balanced middle: these pin
  // down the constant, the w/p slope, and the linear overhead terms.
  add(1, 1);
  add(max_ps, max_workers);
  add(std::max(1, max_ps / 2), std::max(1, max_workers / 2));
  add(max_ps, std::max(1, max_workers / 4));
  add(std::max(1, max_ps / 4), max_workers);

  // Fill the remainder with uniform random distinct pairs.
  int guard = 0;
  while (static_cast<int>(chosen.size()) < count && guard < 10000) {
    ++guard;
    chosen.insert({static_cast<int>(rng->UniformInt(1, max_ps)),
                   static_cast<int>(rng->UniformInt(1, max_workers))});
  }

  return {chosen.begin(), chosen.end()};
}

std::vector<SpeedSample> InitializeSpeedModel(SpeedModel* model, const SpeedOracle& oracle,
                                              int count, int max_ps, int max_workers,
                                              Rng* rng) {
  OPTIMUS_CHECK(model != nullptr);
  OPTIMUS_CHECK(oracle != nullptr);
  std::vector<SpeedSample> samples;
  for (const auto& [p, w] : SelectSamplePairs(count, max_ps, max_workers, rng)) {
    const double speed = oracle(p, w);
    if (speed > 0.0) {
      samples.push_back({p, w, speed});
      model->AddSample(p, w, speed);
    }
  }
  model->Fit();
  return samples;
}

}  // namespace optimus
