// Exporters: Prometheus text format and a JSON time-series run report.
//
// Both exporters walk the registry in registration order and build their
// output in one string. Every number is printed as printf("%.17g") in the C
// locale (AppendDouble17, src/common/json_writer.h; integers via
// std::to_chars), independent of the process's locale, so for a fixed
// simulation outcome the exported bytes are fixed too — the determinism tests
// compare exports bitwise across thread counts. Profiling metrics (host
// wall-clock) are included for human consumption by default and excluded
// (include_profiling = false) wherever bitwise stability matters: determinism
// comparisons and golden files.
//
// Formats:
//   Prometheus — standard text exposition: # HELP / # TYPE lines, counters
//     and gauges as single samples, histograms as cumulative `_bucket{le=..}`
//     samples plus `_sum` / `_count`.
//   JSON run report — one self-contained object: the final registry snapshot
//     (histograms with buckets and p50/p95/p99), the per-interval time series
//     sampled by MetricsSeries, and the flight-recorder tail. The series rows
//     are encoded once, when sampled, so a report's cost does not grow with
//     the number of rows.

#ifndef SRC_OBS_EXPORTERS_H_
#define SRC_OBS_EXPORTERS_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"

namespace optimus {

struct ExportOptions {
  // Include profiling (wall-clock) metrics. Turn off for determinism
  // comparisons and golden snapshots.
  bool include_profiling = true;
};

// Per-interval snapshots of the registry's deterministic scalar values:
// every non-profiling counter and gauge, plus `_count` / `_sum` per
// non-profiling histogram. The column set is frozen at the first Sample()
// call (register all metrics first); every row carries one value per column.
//
// Each row is encoded as JSON text once, at sample time, and appended to one
// string; the run report writes that string in a single call.
class MetricsSeries {
 public:
  void Sample(double time_s, const MetricsRegistry& registry);

  size_t num_rows() const { return times_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<double>& times() const { return times_; }
  // The elements of the report's "rows" array, each on its own indented
  // line: `[time_s, v1, v2, ...]`, comma-separated.
  const std::string& encoded_rows() const { return encoded_rows_; }

 private:
  std::vector<std::string> columns_;
  std::vector<double> times_;
  std::string encoded_rows_;
};

// Prometheus text exposition of the registry.
void ExportPrometheus(const MetricsRegistry& registry, std::ostream& os,
                      const ExportOptions& options = {});
std::string ExportPrometheusString(const MetricsRegistry& registry,
                                   const ExportOptions& options = {});

// JSON run report: final registry snapshot + per-interval series + flight
// recorder tail. `series` and `flight` may be null (sections are emitted
// empty).
void ExportJsonReport(const MetricsRegistry& registry, const MetricsSeries* series,
                      const FlightRecorder* flight, std::ostream& os,
                      const ExportOptions& options = {});
std::string ExportJsonReportString(const MetricsRegistry& registry,
                                   const MetricsSeries* series,
                                   const FlightRecorder* flight,
                                   const ExportOptions& options = {});

}  // namespace optimus

#endif  // SRC_OBS_EXPORTERS_H_
