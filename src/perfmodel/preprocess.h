// Loss-sample preprocessing for online curve fitting (§3.1).
//
// Before fitting, Optimus (a) removes outliers — a sample is an outlier when
// it does not fall between the minimum of its next few neighbours and the
// maximum of its previous few neighbours, and is replaced by the neighbour
// average — and (b) normalizes losses by the maximum loss observed so far so
// that every job's curve lives in (0, 1].

#ifndef SRC_PERFMODEL_PREPROCESS_H_
#define SRC_PERFMODEL_PREPROCESS_H_

#include <vector>

namespace optimus {

struct LossSample {
  double step = 0.0;
  double loss = 0.0;
};

// Writes `samples` into `*out` with out-of-band samples replaced by their
// neighbour average. `window` is the number of neighbours considered on each
// side (the paper uses 5 epochs). The band takes O(1) per sample: windows up
// to 64 are cut into tiles of `window` on the stack, and a window's extremum
// combines a suffix of one tile with a prefix of the next. The `window`
// samples at each end, and every sample of a wider window, scan both windows
// directly; either way the result is bit for bit the scan's. `*out` keeps its
// capacity, so a caller that refits repeatedly reuses one buffer; it must not
// alias `samples`.
void RemoveOutliers(const std::vector<LossSample>& samples, int window,
                    std::vector<LossSample>* out);

// The same, returning a new vector.
std::vector<LossSample> RemoveOutliers(const std::vector<LossSample>& samples,
                                       int window = 5);

// Divides every loss by the maximum loss in `samples`; no-op on empty input.
// Returns the normalization factor used (max loss; 1.0 if empty/degenerate).
double NormalizeLosses(std::vector<LossSample>* samples);

// Reduces the sample count to at most `max_points` in place by averaging
// consecutive buckets (both step and loss), preserving curve shape (§3.1
// suggests sampling/averaging when hundreds of thousands of steps
// accumulate). Leaves `*samples` untouched when it already fits.
void DownsampleInPlace(std::vector<LossSample>* samples, int max_points);

// The same, returning a new vector.
std::vector<LossSample> Downsample(std::vector<LossSample> samples, int max_points);

}  // namespace optimus

#endif  // SRC_PERFMODEL_PREPROCESS_H_
