#include "src/obs/metrics_registry.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/stats.h"

namespace optimus {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void Counter::Add(double v) {
  OPTIMUS_CHECK(!source_) << "counter " << name() << " is a view";
  value_ += v;
}

void Gauge::Set(double v) {
  OPTIMUS_CHECK(!source_) << "gauge " << name() << " is a view";
  value_ = v;
}

Histogram::Histogram(std::string name, std::string help, std::vector<double> bounds,
                     bool profiling)
    : Metric(MetricKind::kHistogram, std::move(name), std::move(help), profiling),
      bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1, 0) {
  OPTIMUS_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  OPTIMUS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
}

void Histogram::Record(double v) {
  // Upper-inclusive buckets (Prometheus `le`); values above the last finite
  // bound land in the +Inf overflow bucket.
  size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) {
    ++b;
  }
  ++buckets_[b];
  ++count_;
  sum_ += v;
}

double Histogram::Quantile(double q) const {
  return HistogramQuantile(bounds_, buckets_, q);
}

template <typename M>
M* MetricsRegistry::Register(M* metric) {
  const bool inserted = by_name_.emplace(metric->name(), metrics_.size()).second;
  OPTIMUS_CHECK(inserted) << "duplicate metric name " << metric->name();
  metrics_.emplace_back(metric);
  return metric;
}

Counter* MetricsRegistry::AddCounter(std::string name, std::string help,
                                     bool profiling) {
  return Register(new Counter(std::move(name), std::move(help), profiling, nullptr));
}

Gauge* MetricsRegistry::AddGauge(std::string name, std::string help, bool profiling) {
  return Register(new Gauge(std::move(name), std::move(help), profiling, nullptr));
}

Counter* MetricsRegistry::AddCounterView(std::string name, std::string help,
                                         MetricSource source) {
  OPTIMUS_CHECK(source != nullptr) << "view " << name << " needs a source";
  return Register(new Counter(std::move(name), std::move(help), false,
                              std::move(source)));
}

Gauge* MetricsRegistry::AddGaugeView(std::string name, std::string help,
                                     MetricSource source, bool profiling) {
  OPTIMUS_CHECK(source != nullptr) << "view " << name << " needs a source";
  return Register(new Gauge(std::move(name), std::move(help), profiling,
                            std::move(source)));
}

Histogram* MetricsRegistry::AddHistogram(std::string name, std::string help,
                                         std::vector<double> bounds, bool profiling) {
  return Register(new Histogram(std::move(name), std::move(help), std::move(bounds),
                                profiling));
}

const Metric* MetricsRegistry::Find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : metrics_[it->second].get();
}

}  // namespace optimus
