// Test speed functions as SpeedEstimate values.
//
// A kCustom estimate only points at its callable, so KeepSpeed moves each
// callable into storage that lives as long as the test binary. Every call
// keeps a new copy: two KeepSpeed results never compare equal, so they never
// share a surface. To share one, copy the returned estimate.

#ifndef TESTS_TEST_SPEEDS_H_
#define TESTS_TEST_SPEEDS_H_

#include <deque>
#include <utility>

#include "src/sched/speed_estimate.h"

namespace optimus {

template <typename F>
SpeedEstimate KeepSpeed(F fn) {
  static std::deque<F> kept;
  return SpeedEstimate::Of(&kept.emplace_back(std::move(fn)));
}

}  // namespace optimus

#endif  // TESTS_TEST_SPEEDS_H_
