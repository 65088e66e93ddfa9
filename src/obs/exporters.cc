#include "src/obs/exporters.h"

#include <ostream>

#include "src/common/logging.h"
#include "src/obs/text_format.h"

namespace optimus {

using obs_internal::AppendInt;

void MetricsSeries::Sample(double time_s, const MetricsRegistry& registry) {
  if (times_.empty()) {
    for (size_t i = 0; i < registry.size(); ++i) {
      const Metric& m = registry.metric(i);
      if (m.profiling()) {
        continue;
      }
      if (m.kind() == MetricKind::kHistogram) {
        columns_.push_back(m.name() + "_count");
        columns_.push_back(m.name() + "_sum");
      } else {
        columns_.push_back(m.name());
      }
    }
  }
  encoded_rows_ += times_.empty() ? "\n      [" : ",\n      [";
  AppendDouble17(time_s, &encoded_rows_);
  size_t values = 0;
  const auto append = [&](double v) {
    encoded_rows_ += ", ";
    AppendDouble17(v, &encoded_rows_);
    ++values;
  };
  for (size_t i = 0; i < registry.size(); ++i) {
    const Metric& m = registry.metric(i);
    if (m.profiling()) {
      continue;
    }
    switch (m.kind()) {
      case MetricKind::kCounter:
        append(static_cast<const Counter&>(m).value());
        break;
      case MetricKind::kGauge:
        append(static_cast<const Gauge&>(m).value());
        break;
      case MetricKind::kHistogram: {
        const auto& h = static_cast<const Histogram&>(m);
        append(static_cast<double>(h.count()));
        append(h.sum());
        break;
      }
    }
  }
  OPTIMUS_CHECK_EQ(values, columns_.size())
      << "metrics were registered after the first Sample()";
  encoded_rows_ += ']';
  times_.push_back(time_s);
}

std::string ExportPrometheusString(const MetricsRegistry& registry,
                                   const ExportOptions& options) {
  std::string out;
  for (size_t i = 0; i < registry.size(); ++i) {
    const Metric& m = registry.metric(i);
    if (m.profiling() && !options.include_profiling) {
      continue;
    }
    out += "# HELP " + m.name() + " " + m.help() + "\n";
    out += "# TYPE " + m.name() + " " + MetricKindName(m.kind()) + "\n";
    switch (m.kind()) {
      case MetricKind::kCounter:
        out += m.name() + " ";
        AppendDouble17(static_cast<const Counter&>(m).value(), &out);
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += m.name() + " ";
        AppendDouble17(static_cast<const Gauge&>(m).value(), &out);
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        const auto& h = static_cast<const Histogram&>(m);
        int64_t cumulative = 0;
        for (size_t b = 0; b < h.bounds().size(); ++b) {
          cumulative += h.buckets()[b];
          out += m.name() + "_bucket{le=\"";
          AppendDouble17(h.bounds()[b], &out);
          out += "\"} ";
          AppendInt(cumulative, &out);
          out += '\n';
        }
        out += m.name() + "_bucket{le=\"+Inf\"} ";
        AppendInt(h.count(), &out);
        out += "\n" + m.name() + "_sum ";
        AppendDouble17(h.sum(), &out);
        out += "\n" + m.name() + "_count ";
        AppendInt(h.count(), &out);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

void ExportPrometheus(const MetricsRegistry& registry, std::ostream& os,
                      const ExportOptions& options) {
  os << ExportPrometheusString(registry, options);
}

std::string ExportJsonReportString(const MetricsRegistry& registry,
                                   const MetricsSeries* series,
                                   const FlightRecorder* flight,
                                   const ExportOptions& options) {
  std::string out = "{\n";
  out += "  \"format\": \"optimus-run-report-v1\",\n";

  // Final registry snapshot.
  out += "  \"metrics\": {";
  bool first = true;
  for (size_t i = 0; i < registry.size(); ++i) {
    const Metric& m = registry.metric(i);
    if (m.profiling() && !options.include_profiling) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + m.name() + "\": {\"type\": \"" + MetricKindName(m.kind()) + "\"";
    if (m.profiling()) {
      out += ", \"profiling\": true";
    }
    switch (m.kind()) {
      case MetricKind::kCounter:
        out += ", \"value\": ";
        AppendDouble17(static_cast<const Counter&>(m).value(), &out);
        break;
      case MetricKind::kGauge:
        out += ", \"value\": ";
        AppendDouble17(static_cast<const Gauge&>(m).value(), &out);
        break;
      case MetricKind::kHistogram: {
        const auto& h = static_cast<const Histogram&>(m);
        out += ", \"count\": ";
        AppendInt(h.count(), &out);
        out += ", \"sum\": ";
        AppendDouble17(h.sum(), &out);
        out += ", \"bounds\": [";
        for (size_t b = 0; b < h.bounds().size(); ++b) {
          out += b == 0 ? "" : ", ";
          AppendDouble17(h.bounds()[b], &out);
        }
        out += "], \"buckets\": [";
        for (size_t b = 0; b < h.buckets().size(); ++b) {
          out += b == 0 ? "" : ", ";
          AppendInt(h.buckets()[b], &out);
        }
        out += "], \"p50\": ";
        AppendDouble17(h.Quantile(0.50), &out);
        out += ", \"p95\": ";
        AppendDouble17(h.Quantile(0.95), &out);
        out += ", \"p99\": ";
        AppendDouble17(h.Quantile(0.99), &out);
        break;
      }
    }
    out += '}';
  }
  out += first ? "" : "\n  ";
  out += "},\n";

  // Per-interval time series, encoded row by row at sample time.
  out += "  \"series\": {";
  if (series != nullptr && series->num_rows() > 0) {
    out += "\n    \"columns\": [\"time_s\"";
    for (const std::string& c : series->columns()) {
      out += ", \"" + c + "\"";
    }
    out += "],\n    \"rows\": [";
    out += series->encoded_rows();
    out += "\n    ]\n  ";
  }
  out += "},\n";

  // Flight-recorder tail.
  out += "  \"flight_recorder\": ";
  if (flight != nullptr && flight->enabled()) {
    flight->AppendJson(&out, 1);
  } else {
    out += "[]";
  }
  out += "\n}\n";
  return out;
}

void ExportJsonReport(const MetricsRegistry& registry, const MetricsSeries* series,
                      const FlightRecorder* flight, std::ostream& os,
                      const ExportOptions& options) {
  os << ExportJsonReportString(registry, series, flight, options);
}

}  // namespace optimus
