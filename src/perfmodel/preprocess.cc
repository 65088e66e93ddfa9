#include "src/perfmodel/preprocess.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace optimus {

namespace {

// Widest window whose band RemoveOutliers finds in tiles on the stack.
constexpr int kMaxTiledWindow = 64;

// True when `loss` falls outside [min(next_min, prev_max), max(next_min,
// prev_max)] by more than the slack. An infinite next_min or prev_max (no
// finite neighbour on that side) never marks an outlier.
bool OutsideBand(double loss, double next_min, double prev_max) {
  if (!std::isfinite(next_min) || !std::isfinite(prev_max)) {
    return false;  // boundary samples keep their value
  }
  const double lo = std::min(next_min, prev_max);
  const double hi = std::max(next_min, prev_max);
  // Small tolerance: noise-level excursions are not outliers.
  const double slack = 0.05 * std::max(std::abs(hi), 1e-12);
  return loss < lo - slack || loss > hi + slack;
}

// Replaces sample i with the average of its in-window neighbours.
void ReplaceWithNeighbourMean(const std::vector<LossSample>& samples, int window, int i,
                              std::vector<LossSample>* out) {
  const int n = static_cast<int>(samples.size());
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
    (*out)[i].loss = sum / count;
  }
}

// The band of sample i by a scan of both (possibly truncated) windows.
void ScanBand(const std::vector<LossSample>& samples, int window, int i,
              std::vector<LossSample>* out) {
  const int n = static_cast<int>(samples.size());
  double next_min = std::numeric_limits<double>::infinity();
  for (int j = i + 1; j <= std::min(n - 1, i + window); ++j) {
    next_min = std::min(next_min, samples[j].loss);
  }
  double prev_max = -std::numeric_limits<double>::infinity();
  for (int j = std::max(0, i - window); j < i; ++j) {
    prev_max = std::max(prev_max, samples[j].loss);
  }
  if (OutsideBand(samples[i].loss, next_min, prev_max)) {
    ReplaceWithNeighbourMean(samples, window, i, out);
  }
}

}  // namespace

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
  const int w = window;
  if (w > kMaxTiledWindow) {
    for (int i = 0; i < n; ++i) {
      ScanBand(samples, w, i, &out);
    }
    return;
  }
  // Samples [w, n - w) have both windows whole: [i - w, i) and (i, i + w].
  // Cut the samples into tiles of w, tile t = [t * w, (t + 1) * w). For
  // i = t * w + r, the previous window is the suffix of tile t - 1 from r
  // and the prefix of tile t up to r - 1; the next window is the suffix of
  // tile t from r + 1 and the prefix of tile t + 1 up to r. Each tile's
  // running extrema are computed once, so the band costs O(1) per sample
  // (van Herk / Gil-Werman). Min and max are exact and, as std::min(acc, x)
  // and std::max(acc, x), skip NaN in any order, so every band has the
  // scan's value; only a zero's sign may differ, which no comparison below
  // sees.
  const int interior_end = n - w;  // first sample whose next window is cut
  for (int i = 0; i < std::min(w, n); ++i) {
    ScanBand(samples, w, i, &out);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Index r + 1 holds the value at offset r; the sentinels sit at 0 (prefix)
  // and w + 1 (suffix).
  double prev_suffix_max[kMaxTiledWindow + 2];
  double prefix_max[kMaxTiledWindow + 2];
  double suffix_min[kMaxTiledWindow + 2];
  double next_prefix_min[kMaxTiledWindow + 2];
  for (int base = w; base < interior_end; base += w) {
    const int rows = std::min(w, interior_end - base);
    prev_suffix_max[w + 1] = -kInf;
    suffix_min[w + 1] = kInf;
    for (int r = w - 1; r >= 0; --r) {
      prev_suffix_max[r + 1] = std::max(prev_suffix_max[r + 2], samples[base - w + r].loss);
      suffix_min[r + 1] = std::min(suffix_min[r + 2], samples[base + r].loss);
    }
    prefix_max[0] = -kInf;
    next_prefix_min[0] = kInf;
    for (int r = 0; r < rows; ++r) {
      prefix_max[r + 1] = std::max(prefix_max[r], samples[base + r].loss);
      next_prefix_min[r + 1] = std::min(next_prefix_min[r], samples[base + w + r].loss);
    }
    for (int r = 0; r < rows; ++r) {
      const double prev_max = std::max(prev_suffix_max[r + 1], prefix_max[r]);
      const double next_min = std::min(suffix_min[r + 2], next_prefix_min[r + 1]);
      if (OutsideBand(samples[base + r].loss, next_min, prev_max)) {
        ReplaceWithNeighbourMean(samples, w, base + r, &out);
      }
    }
  }
  for (int i = std::max(w, interior_end); i < n; ++i) {
    ScanBand(samples, w, i, &out);
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
