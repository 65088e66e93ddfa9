#include "src/perfmodel/preprocess.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace optimus {

void RemoveOutliers(const std::vector<LossSample>& samples, int window,
                    std::vector<LossSample>* out_buffer) {
  OPTIMUS_CHECK_GE(window, 1);
  OPTIMUS_CHECK(out_buffer != nullptr && out_buffer != &samples);
  std::vector<LossSample>& out = *out_buffer;
  out.assign(samples.begin(), samples.end());
  const int n = static_cast<int>(samples.size());
  if (n < 3) {
    return;
  }
  for (int i = 0; i < n; ++i) {
    // Band: [min of next `window` samples, max of previous `window` samples].
    double next_min = std::numeric_limits<double>::infinity();
    for (int j = i + 1; j <= std::min(n - 1, i + window); ++j) {
      next_min = std::min(next_min, samples[j].loss);
    }
    double prev_max = -std::numeric_limits<double>::infinity();
    for (int j = std::max(0, i - window); j < i; ++j) {
      prev_max = std::max(prev_max, samples[j].loss);
    }
    if (!std::isfinite(next_min) || !std::isfinite(prev_max)) {
      continue;  // boundary samples keep their value
    }
    const double lo = std::min(next_min, prev_max);
    const double hi = std::max(next_min, prev_max);
    // Small tolerance: noise-level excursions are not outliers.
    const double slack = 0.05 * std::max(std::abs(hi), 1e-12);
    if (samples[i].loss < lo - slack || samples[i].loss > hi + slack) {
      // Replace with the average of the in-window neighbours.
      double sum = 0.0;
      int count = 0;
      for (int j = std::max(0, i - window); j <= std::min(n - 1, i + window); ++j) {
        if (j == i) {
          continue;
        }
        sum += samples[j].loss;
        ++count;
      }
      if (count > 0) {
        out[i].loss = sum / count;
      }
    }
  }
}

std::vector<LossSample> RemoveOutliers(const std::vector<LossSample>& samples,
                                       int window) {
  std::vector<LossSample> out;
  RemoveOutliers(samples, window, &out);
  return out;
}

double NormalizeLosses(std::vector<LossSample>* samples) {
  OPTIMUS_CHECK(samples != nullptr);
  double max_loss = 0.0;
  for (const LossSample& s : *samples) {
    max_loss = std::max(max_loss, s.loss);
  }
  if (max_loss <= 0.0) {
    return 1.0;
  }
  for (LossSample& s : *samples) {
    s.loss /= max_loss;
  }
  return max_loss;
}

void DownsampleInPlace(std::vector<LossSample>* samples, int max_points) {
  OPTIMUS_CHECK(samples != nullptr);
  OPTIMUS_CHECK_GE(max_points, 1);
  std::vector<LossSample>& s = *samples;
  const int n = static_cast<int>(s.size());
  if (n <= max_points) {
    return;
  }
  // Bucket b starts at index >= b (buckets are wider than one sample), so the
  // write cursor never passes the bucket being read.
  size_t written = 0;
  const double bucket = static_cast<double>(n) / max_points;
  for (int b = 0; b < max_points; ++b) {
    const int lo = static_cast<int>(b * bucket);
    const int hi = std::min(n, static_cast<int>((b + 1) * bucket));
    if (lo >= hi) {
      continue;
    }
    double step_sum = 0.0;
    double loss_sum = 0.0;
    for (int i = lo; i < hi; ++i) {
      step_sum += s[i].step;
      loss_sum += s[i].loss;
    }
    const double count = static_cast<double>(hi - lo);
    s[written++] = {step_sum / count, loss_sum / count};
  }
  s.resize(written);
}

std::vector<LossSample> Downsample(std::vector<LossSample> samples, int max_points) {
  DownsampleInPlace(&samples, max_points);
  return samples;
}

}  // namespace optimus
