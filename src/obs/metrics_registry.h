// Deterministic metrics registry: named counters, gauges, and fixed-bucket
// histograms for the simulator's instrument panel.
//
// The whole control loop runs on measured signals (loss curves §3.1, sampled
// speeds §3.2, utilization and scaling overhead §6), so telemetry must not be
// an afterthought — but it also must not perturb the simulation or break the
// repo's determinism contract. The registry therefore follows the same rule
// as every other cross-thread structure in this codebase: it is only ever
// mutated and read serially, so every exported value is bitwise identical for
// any thread count.
//
// A metric either owns its value (Counter::Add, Gauge::Set,
// Histogram::Record) or is a view: it reads a live source — a total the
// program maintains anyway — whenever it is sampled or exported, so there is
// no second copy to keep in step.
//
// Determinism classes:
//   - deterministic metrics (default): derived from simulated state only;
//     identical across --threads and repeats, compared bitwise by tests.
//   - profiling metrics (profiling = true): host wall-clock measurements
//     (PhaseProfiler); exported for humans, excluded from determinism
//     comparisons and golden files (ExportOptions::include_profiling).
//
// Thread-safety: registration, direct mutation and reads (which call view
// sources) are serial-context operations. The registry never takes locks.

#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace optimus {

// Live source of a view metric.
using MetricSource = std::function<double()>;

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// Shared metadata of one registered metric.
class Metric {
 public:
  virtual ~Metric() = default;

  MetricKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  // Profiling metrics carry host wall-clock values: exported, but excluded
  // from determinism comparisons and golden snapshots.
  bool profiling() const { return profiling_; }

 protected:
  Metric(MetricKind kind, std::string name, std::string help, bool profiling)
      : kind_(kind), name_(std::move(name)), help_(std::move(help)),
        profiling_(profiling) {}

 private:
  MetricKind kind_;
  std::string name_;
  std::string help_;
  bool profiling_;
};

// Monotonically non-decreasing total (Prometheus counter semantics; the value
// is a double so step counts such as rolled-back steps fit too).
class Counter : public Metric {
 public:
  // Direct increment; serial contexts only. Fatal on a view.
  void Add(double v = 1.0);
  double value() const { return source_ ? source_() : value_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help, bool profiling, MetricSource source)
      : Metric(MetricKind::kCounter, std::move(name), std::move(help), profiling),
        source_(std::move(source)) {}

  MetricSource source_;  // set for views
  double value_ = 0.0;
};

// Point-in-time value (last write wins).
class Gauge : public Metric {
 public:
  // Fatal on a view.
  void Set(double v);
  double value() const { return source_ ? source_() : value_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help, bool profiling, MetricSource source)
      : Metric(MetricKind::kGauge, std::move(name), std::move(help), profiling),
        source_(std::move(source)) {}

  MetricSource source_;  // set for views
  double value_ = 0.0;
};

// Fixed-bucket histogram with Prometheus semantics: `bounds` are ascending
// finite upper bounds, each bucket is upper-inclusive (v <= bound), and an
// implicit +Inf bucket catches the overflow. Quantiles are estimated by
// linear interpolation inside the owning bucket (HistogramQuantile in
// common/stats), which is exact at bucket edges and approximate within.
class Histogram : public Metric {
 public:
  void Record(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket (non-cumulative) counts; size bounds().size() + 1, the last
  // entry being the +Inf overflow bucket.
  const std::vector<int64_t>& buckets() const { return buckets_; }
  int64_t count() const { return count_; }
  double sum() const { return sum_; }

  // Estimated q-quantile (q in [0, 1]); 0 when the histogram is empty.
  // Quantile(0.5) / Quantile(0.95) / Quantile(0.99) are the p50/p95/p99 the
  // exporters report.
  double Quantile(double q) const;

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help, std::vector<double> bounds,
            bool profiling);

  std::vector<double> bounds_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
};

// Registry of named metrics. Registration order is the export order, so the
// export text is deterministic by construction. Names must be unique;
// re-registering a name is fatal.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration (serial, up-front).
  Counter* AddCounter(std::string name, std::string help, bool profiling = false);
  Gauge* AddGauge(std::string name, std::string help, bool profiling = false);
  // Views: the value is `source()` at every read. The caller guarantees a
  // counter source never decreases and outlives the registry's readers.
  Counter* AddCounterView(std::string name, std::string help, MetricSource source);
  Gauge* AddGaugeView(std::string name, std::string help, MetricSource source,
                      bool profiling = false);
  Histogram* AddHistogram(std::string name, std::string help,
                          std::vector<double> bounds, bool profiling = false);

  // Metrics in registration order.
  size_t size() const { return metrics_.size(); }
  const Metric& metric(size_t i) const { return *metrics_[i]; }

  // nullptr when no metric has that name.
  const Metric* Find(const std::string& name) const;

 private:
  template <typename M>
  M* Register(M* metric);

  std::vector<std::unique_ptr<Metric>> metrics_;  // registration order
  std::map<std::string, size_t> by_name_;
};

}  // namespace optimus

#endif  // SRC_OBS_METRICS_REGISTRY_H_
