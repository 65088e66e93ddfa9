// Per-model fit accounting shared by the convergence and speed models.
//
// Each model instance is job-owned, so the counters are incremented without
// synchronization even when jobs fit in parallel; the simulator sums them
// over jobs in job order when the metrics registry is read, which keeps the
// exported totals bitwise deterministic for any thread count.

#ifndef SRC_PERFMODEL_FIT_STATS_H_
#define SRC_PERFMODEL_FIT_STATS_H_

#include <cstdint>

namespace optimus {

struct ModelFitStats {
  // Fit() calls that attempted a solve (had enough samples and, with caching
  // on, new samples since the last attempt).
  int64_t fits = 0;
  // Fit() calls answered from the dirty-flag cache without solving.
  int64_t fit_cache_hits = 0;
  // NNLS active-set iterations summed over every solve (all beta2 candidates
  // for the convergence model).
  int64_t nnls_iterations = 0;

  ModelFitStats& operator+=(const ModelFitStats& o) {
    fits += o.fits;
    fit_cache_hits += o.fit_cache_hits;
    nnls_iterations += o.nnls_iterations;
    return *this;
  }
};

}  // namespace optimus

#endif  // SRC_PERFMODEL_FIT_STATS_H_
