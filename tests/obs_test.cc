// Observability subsystem tests: registry semantics and view metrics,
// histogram bucket edges, flight-recorder wraparound and dump-on-violation,
// exporter golden files, and the end-to-end acceptance criteria — the
// exported registry contents and flight-recorder sequence of a simulator run
// are bitwise identical for --threads {1, 2, 8}, with and without a fault
// plan; exported counters agree with RunMetrics after Run() on both engines;
// and the flight ring and the trace spell every shared edge the same way.
//
// Regenerating the exporter goldens after an INTENDED format change:
//
//   OPTIMUS_REGEN_GOLDEN=1 ./build/tests/obs_test
//
// then commit tests/golden/metrics.prom and tests/golden/run_report.json.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <locale>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/exporters.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/phase_profiler.h"
#include "src/obs/text_format.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_injector.h"
#include "src/sim/invariant_auditor.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

#ifndef OPTIMUS_SOURCE_DIR
#error "OPTIMUS_SOURCE_DIR must be defined to locate the golden files"
#endif

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Registry basics
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, RegistersAndFindsMetrics) {
  MetricsRegistry registry;
  Counter* c = registry.AddCounter("jobs_total", "Jobs.");
  Gauge* g = registry.AddGauge("clock_s", "Sim time.");
  Histogram* h = registry.AddHistogram("jct_s", "JCTs.", {10.0, 100.0});

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.Find("jobs_total"), c);
  EXPECT_EQ(registry.Find("clock_s"), g);
  EXPECT_EQ(registry.Find("jct_s"), h);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  // Registration order is export order.
  EXPECT_EQ(registry.metric(0).name(), "jobs_total");
  EXPECT_EQ(registry.metric(2).kind(), MetricKind::kHistogram);

  c->Add();
  c->Add(2.5);
  EXPECT_DOUBLE_EQ(c->value(), 3.5);
  g->Set(-4.0);
  EXPECT_DOUBLE_EQ(g->value(), -4.0);
}

TEST(MetricsRegistryTest, ProfilingFlagIsPerMetric) {
  MetricsRegistry registry;
  registry.AddCounter("det_total", "Deterministic.");
  Gauge* wall = registry.AddGauge("wall_s", "Wall clock.", /*profiling=*/true);
  EXPECT_FALSE(registry.Find("det_total")->profiling());
  EXPECT_TRUE(wall->profiling());
}

// ---------------------------------------------------------------------------
// Histogram bucket edges and quantiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketEdgesAreUpperInclusive) {
  MetricsRegistry registry;
  Histogram* h = registry.AddHistogram("h", "H.", {1.0, 2.0, 4.0});
  // Exactly on a bound lands in that bucket (Prometheus `le` semantics).
  h->Record(1.0);   // bucket 0 (<= 1)
  h->Record(1.5);   // bucket 1 (<= 2)
  h->Record(2.0);   // bucket 1
  h->Record(4.0);   // bucket 2 (<= 4)
  h->Record(4.01);  // overflow (+Inf)
  h->Record(-1.0);  // bucket 0

  ASSERT_EQ(h->buckets().size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(h->buckets()[0], 2);
  EXPECT_EQ(h->buckets()[1], 2);
  EXPECT_EQ(h->buckets()[2], 1);
  EXPECT_EQ(h->buckets()[3], 1);
  EXPECT_EQ(h->count(), 6);
  EXPECT_DOUBLE_EQ(h->sum(), 1.0 + 1.5 + 2.0 + 4.0 + 4.01 - 1.0);
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.AddHistogram("h", "H.", {10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) {
    h->Record(5.0);   // bucket 0
  }
  for (int i = 0; i < 10; ++i) {
    h->Record(15.0);  // bucket 1
  }
  // p50 sits exactly at the edge between buckets 0 and 1.
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 10.0);
  // p75 is halfway through bucket 1: 10 + 0.5 * (20 - 10).
  EXPECT_DOUBLE_EQ(h->Quantile(0.75), 15.0);
  // Quantiles landing in the overflow bucket clamp to the last finite bound.
  h->Record(1000.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 40.0);
}

TEST(HistogramQuantileTest, MatchesHandComputedValues) {
  const std::vector<double> bounds = {1.0, 2.0};
  // 4 in (…, 1], 4 in (1, 2], 2 overflow.
  const std::vector<int64_t> counts = {4, 4, 2};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.4), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.6), 1.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.95), 2.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile({}, {0}, 0.5), 0.0);
}

// Views read their source at every read, so an export never lags the value
// it reports.
TEST(MetricsRegistryTest, ViewsReadTheirSourceLive) {
  MetricsRegistry registry;
  int64_t total = 0;
  double clock_s = 0.0;
  const Counter* c = registry.AddCounterView(
      "live_total", "Live.", [&total] { return static_cast<double>(total); });
  const Gauge* g = registry.AddGaugeView("live_clock_s", "Live clock.",
                                         [&clock_s] { return clock_s; });
  EXPECT_DOUBLE_EQ(c->value(), 0.0);
  total = 7;
  clock_s = 1.5;
  EXPECT_DOUBLE_EQ(c->value(), 7.0);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  const std::string prom = ExportPrometheusString(registry);
  EXPECT_NE(prom.find("live_total 7\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("live_clock_s 1.5\n"), std::string::npos) << prom;
}

// ---------------------------------------------------------------------------
// Phase profiler
// ---------------------------------------------------------------------------

TEST(PhaseProfilerTest, AccumulatesAndMirrorsProfilingGauges) {
  MetricsRegistry registry;
  PhaseProfiler profiler;
  profiler.AttachRegistry(&registry, "wall_");
  const int a = profiler.RegisterPhase("alpha");
  const int b = profiler.RegisterPhase("beta");
  profiler.Add(a, 1.25);
  profiler.Add(a, 0.25);
  profiler.Add(b, 3.0);
  EXPECT_DOUBLE_EQ(profiler.seconds(a), 1.5);
  EXPECT_DOUBLE_EQ(profiler.seconds(b), 3.0);
  EXPECT_EQ(profiler.name(a), "alpha");

  const Metric* ga = registry.Find("wall_alpha_seconds");
  ASSERT_NE(ga, nullptr);
  EXPECT_TRUE(ga->profiling());
  EXPECT_DOUBLE_EQ(static_cast<const Gauge*>(ga)->value(), 1.5);

  {
    ScopedTimer timer(&profiler, b);
  }
  EXPECT_GE(profiler.seconds(b), 3.0);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, WrapsAroundKeepingTheNewestEvents) {
  FlightRecorder recorder(4);
  ASSERT_TRUE(recorder.enabled());
  for (int i = 0; i < 10; ++i) {
    recorder.Record(100.0 * i, SimEventType::kScheduled, i, i + 1, 2 * i);
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.size(), 4u);
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: sequence numbers 6..9 survive.
  for (size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].seq, 6 + k);
    EXPECT_EQ(events[k].job_id, static_cast<int>(6 + k));
    EXPECT_DOUBLE_EQ(events[k].time_s, 100.0 * static_cast<double>(6 + k));
  }
}

TEST(FlightRecorderTest, DepthZeroIsDisabledNoOp) {
  FlightRecorder recorder(0);
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(1.0, SimEventType::kEvicted, 3);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Events().empty());
}

TEST(FlightRecorderTest, DumpAndJsonCarryTheEventFields) {
  FlightRecorder recorder(8);
  recorder.Record(600.0, SimEventType::kScaled, 4, 2, 6);
  recorder.Record(1200.0, SimEventType::kSlowdown, -1, 0, 0, 0.7);
  std::ostringstream dump;
  recorder.Dump(dump);
  EXPECT_NE(dump.str().find("scaled"), std::string::npos);
  EXPECT_NE(dump.str().find("slowdown"), std::string::npos);
  std::ostringstream json;
  recorder.WriteJson(json);
  EXPECT_NE(json.str().find("\"kind\": \"scaled\""), std::string::npos);
  EXPECT_NE(json.str().find("\"job\": 4"), std::string::npos);
}

// The flight-recorder JSON array as it was encoded before the per-slot cache:
// every retained event re-encoded on each export.
std::string FreshFlightJson(const std::vector<FlightEvent>& events, int indent) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += pad + "  {\"seq\": " + std::to_string(e.seq) + ", \"time_s\": ";
    AppendDouble17(e.time_s, &out);
    out += ", \"kind\": \"" + std::string(SimEventTypeName(e.kind)) +
           "\", \"job\": " + std::to_string(e.job_id) +
           ", \"ps\": " + std::to_string(e.num_ps) +
           ", \"workers\": " + std::to_string(e.num_workers) + ", \"value\": ";
    AppendDouble17(e.value, &out);
    out += ", \"detail\": " + EncodeJsonString(e.detail) + "}";
  }
  if (!events.empty()) {
    out += "\n" + pad;
  }
  return out + "]";
}

// Details go through the one JSON string escaper (EncodeJsonString), which
// spells a carriage return \u000d, never \r.
TEST(FlightRecorderTest, DetailEscapesCarriageReturnAsUnicode) {
  FlightRecorder recorder(4);
  recorder.Record(1.0, SimEventType::kScheduled, 3, 1, 2, 0.5, "cr\rhere");
  std::string json;
  recorder.AppendJson(&json, 0);
  EXPECT_NE(json.find("\"detail\": \"cr\\u000dhere\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\\r"), std::string::npos) << json;
  EXPECT_EQ(EncodeJsonString("cr\rhere"), "\"cr\\u000dhere\"");
}

TEST(FlightRecorderTest, CachedJsonMatchesFreshEncoding) {
  const std::vector<std::string> details = {
      "", "plain", "say \"hi\"", "back\\slash", "two\nlines", "cr\rhere",
      "tab\there", std::string("ctl\x01") + "byte", "all \"\\\n\r\t\x01 of them"};
  const SimEventType kinds[] = {SimEventType::kScheduled, SimEventType::kScaled,
                                SimEventType::kSlowdown, SimEventType::kCheckpoint,
                                SimEventType::kCompleted};
  int recorded = 0;
  const auto record = [&](FlightRecorder* r) {
    r->Record(0.1 * recorded, kinds[recorded % 5], recorded % 7 - 1, recorded % 3,
              recorded % 11, 1.0 / (recorded + 3),
              details[static_cast<size_t>(recorded) % details.size()]);
    ++recorded;
  };
  const auto expect_fresh = [](const FlightRecorder& r, const std::string& label) {
    for (const int indent : {0, 2}) {
      std::string cached = "prefix";
      r.AppendJson(&cached, indent);
      EXPECT_EQ(cached, "prefix" + FreshFlightJson(r.Events(), indent))
          << label << " indent=" << indent;
    }
  };

  // Exports after 0, 1, 3, 8 and 9 new records at depth 8: repeated exports
  // with nothing new, partial overwrites, a full-ring overwrite and a wrap
  // past the whole ring.
  FlightRecorder recorder(8);
  expect_fresh(recorder, "empty");
  int exports = 0;
  while (recorded < 40) {
    for (const int k : {0, 1, 3, 8, 9}) {
      for (int i = 0; i < k && recorded < 40; ++i) {
        record(&recorder);
      }
      expect_fresh(recorder, "export " + std::to_string(++exports) + " after " +
                                 std::to_string(recorded) + " records");
    }
  }
  EXPECT_EQ(recorder.total_recorded(), 40u);

  // A copy carries the cache; recording into either side keeps both exact.
  FlightRecorder copy(recorder);
  expect_fresh(copy, "copy");
  record(&copy);
  record(&copy);
  expect_fresh(copy, "copy after 2 records");
  expect_fresh(recorder, "original after the copy recorded");
  record(&recorder);
  expect_fresh(recorder, "original after 1 record");
  expect_fresh(copy, "copy after the original recorded");
}

// The auditor's violation reports land in the flight recorder, so the
// post-mortem dump names the failed invariant.
TEST(FlightRecorderTest, AuditorRecordsViolationsIntoTheRecorder) {
  FlightRecorder recorder(16);
  InvariantAuditor auditor;
  auditor.set_flight_recorder(&recorder);

  std::vector<Server> servers = BuildTestbed();
  // Corrupted view: a "running" job with no allocation at all.
  InvariantAuditor::JobView bad;
  bad.job_id = 42;
  bad.state = JobState::kRunning;
  bad.num_ps = 0;
  bad.num_workers = 0;
  InvariantAuditor::Counts counts;
  counts.submitted = 1;
  auditor.Check(600.0, servers, {bad}, counts);

  ASSERT_FALSE(auditor.ok());
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_FALSE(events.empty());
  bool found = false;
  for (const FlightEvent& e : events) {
    if (e.kind == SimEventType::kAuditViolation &&
        e.detail.find("state:") != std::string::npos &&
        e.detail.find("42") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no kAuditViolation event naming job 42";
}

// ---------------------------------------------------------------------------
// Exporter golden files
// ---------------------------------------------------------------------------

// A small fixed registry + series + flight recorder exercising every metric
// kind, special characters, and the profiling flag.
struct GoldenFixture {
  MetricsRegistry registry;
  MetricsSeries series;
  FlightRecorder flight{4};

  GoldenFixture() {
    Counter* jobs = registry.AddCounter("demo_jobs_total", "Jobs \"done\".");
    Gauge* temp = registry.AddGauge("demo_temp", "Signed gauge.");
    Histogram* lat =
        registry.AddHistogram("demo_latency_seconds", "Latency.", {0.5, 2.0});
    Gauge* wall = registry.AddGauge("demo_wall_seconds", "Wall clock.",
                                    /*profiling=*/true);
    jobs->Add(3.0);
    temp->Set(-1.5);
    lat->Record(0.25);
    lat->Record(1.0);
    lat->Record(10.0);
    wall->Set(0.125);
    series.Sample(600.0, registry);
    jobs->Add(1.0);
    temp->Set(2.25);
    series.Sample(1200.0, registry);
    flight.Record(600.0, SimEventType::kScheduled, 1, 2, 4);
    flight.Record(900.0, SimEventType::kEvicted, 1, 0, 0, 0.0,
                  "server=3 \"down\"");
    flight.Record(1200.0, SimEventType::kAuditCheck, -1, 0, 0, 0.0, "full");
  }
};

void CompareToGolden(const std::string& actual, const std::string& filename) {
  const std::string path =
      std::string(OPTIMUS_SOURCE_DIR) + "/tests/golden/" + filename;
  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "exporter output drifted from " << filename
      << "; if intended, regenerate with OPTIMUS_REGEN_GOLDEN=1 and commit";
}

TEST(ExporterGoldenTest, PrometheusTextMatchesGolden) {
  GoldenFixture f;
  CompareToGolden(ExportPrometheusString(f.registry), "metrics.prom");
}

TEST(ExporterGoldenTest, JsonRunReportMatchesGolden) {
  GoldenFixture f;
  CompareToGolden(
      ExportJsonReportString(f.registry, &f.series, &f.flight), "run_report.json");
}

TEST(ExporterTest, IncludeProfilingFalseDropsWallMetrics) {
  GoldenFixture f;
  ExportOptions options;
  options.include_profiling = false;
  const std::string prom = ExportPrometheusString(f.registry, options);
  EXPECT_EQ(prom.find("demo_wall_seconds"), std::string::npos);
  EXPECT_NE(prom.find("demo_jobs_total"), std::string::npos);
  const std::string json =
      ExportJsonReportString(f.registry, nullptr, nullptr, options);
  EXPECT_EQ(json.find("demo_wall_seconds"), std::string::npos);
}

TEST(MetricsSeriesTest, ColumnsFreezeAtFirstSampleAndRowsAccumulate) {
  GoldenFixture f;
  ASSERT_EQ(f.series.num_rows(), 2u);
  // Times are tracked separately (the JSON exporter prepends a time_s
  // column); profiling metrics are excluded; histograms contribute _count
  // and _sum columns.
  ASSERT_FALSE(f.series.columns().empty());
  EXPECT_EQ(f.series.columns()[0], "demo_jobs_total");
  bool has_wall = false;
  bool has_hist_count = false;
  for (const std::string& c : f.series.columns()) {
    if (c == "demo_wall_seconds") {
      has_wall = true;
    }
    if (c == "demo_latency_seconds_count") {
      has_hist_count = true;
    }
  }
  EXPECT_FALSE(has_wall);
  EXPECT_TRUE(has_hist_count);
  EXPECT_DOUBLE_EQ(f.series.times()[0], 600.0);
  EXPECT_DOUBLE_EQ(f.series.times()[1], 1200.0);
}

TEST(MetricsSeriesDeathTest, RegisteringAfterTheFirstSampleIsFatal) {
  MetricsRegistry registry;
  registry.AddCounter("early_total", "Registered before sampling.");
  MetricsSeries series;
  series.Sample(0.0, registry);
  registry.AddGauge("late", "Registered after the first Sample().");
  EXPECT_DEATH(series.Sample(600.0, registry),
               "metrics were registered after the first Sample");
}

// The report's "rows" array body: everything between `"rows": [` and the
// closing bracket's line.
std::string RowsSection(const std::string& report) {
  const std::string open = "\"rows\": [";
  const size_t begin = report.find(open);
  EXPECT_NE(begin, std::string::npos) << report;
  const size_t end = report.find("\n    ]\n", begin);
  EXPECT_NE(end, std::string::npos) << report;
  return report.substr(begin + open.size(), end - begin - open.size());
}

std::string PrintfG17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Rows are encoded once, at Sample() time. The encoded text must equal a
// reference rendered here with printf("%.17g") from the sampled values, at
// every series length, and re-exporting without a new sample must not change
// a byte.
TEST(MetricsSeriesTest, EncodedRowsMatchPrintfReferenceAtEveryLength) {
  MetricsRegistry registry;
  Counter* counter = registry.AddCounter("enc_total", "Counter.");
  Gauge* gauge = registry.AddGauge("enc_gauge", "Gauge.");
  Histogram* hist = registry.AddHistogram("enc_hist", "Histogram.", {0.0, 1.0});
  registry.AddGauge("enc_wall_seconds", "Profiling; not a column.",
                    /*profiling=*/true)
      ->Set(0.125);
  // Negative, non-integral, huge, subnormal and negative-zero values.
  const double values[] = {-2.75, 0.1, 1e300, 0x1p-1074, -0.0, 1.0 / 3, -4e-310};
  constexpr size_t kNumValues = sizeof(values) / sizeof(values[0]);

  MetricsSeries series;
  std::string expected;
  ExportOptions options;
  options.include_profiling = false;
  for (int r = 1; r <= 500; ++r) {
    counter->Add(0.1);
    gauge->Set(values[static_cast<size_t>(r) % kNumValues]);
    if (r <= 40) {  // before 1e300 lands, the sum moves through small values
      hist->Record(values[static_cast<size_t>(3 * r) % kNumValues]);
    }
    const double time_s = 37.5 * r;
    series.Sample(time_s, registry);

    expected += r == 1 ? "\n      [" : ",\n      [";
    expected += PrintfG17(time_s);
    for (const double v : {counter->value(), gauge->value(),
                           static_cast<double>(hist->count()), hist->sum()}) {
      expected += ", " + PrintfG17(v);
    }
    expected += "]";

    if (r == 1 || r == 2 || r == 250 || r == 500) {
      SCOPED_TRACE("rows=" + std::to_string(r));
      ASSERT_EQ(series.num_rows(), static_cast<size_t>(r));
      const std::string report =
          ExportJsonReportString(registry, &series, nullptr, options);
      EXPECT_EQ(RowsSection(report), expected);
      EXPECT_NE(report.find("\"columns\": [\"time_s\", \"enc_total\", "
                            "\"enc_gauge\", \"enc_hist_count\", \"enc_hist_sum\"]"),
                std::string::npos)
          << report;
      EXPECT_EQ(ExportJsonReportString(registry, &series, nullptr, options), report);
    }
  }
}

// Spells numbers the way many European locales do: comma decimal point, dot
// thousands separator, groups of three.
class CommaDecimalNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

// Installs a global C++ locale for its scope and restores the previous one,
// even when an assertion fails.
class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& locale)
      : previous_(std::locale::global(locale)) {}
  ~ScopedGlobalLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

// Every exporter's bytes, from a fixture whose numbers a grouping locale
// would rewrite: large doubles and integers >= 1000 in every section.
std::string AllExports() {
  MetricsRegistry registry;
  MetricsSeries series;
  FlightRecorder flight(4);
  Counter* jobs = registry.AddCounter("big_jobs_total", "Jobs.");
  Gauge* level = registry.AddGauge("big_level", "Signed gauge.");
  Histogram* lat = registry.AddHistogram("big_latency_seconds", "Latency.",
                                         {1000.0, 5000.5});
  jobs->Add(1234567.5);
  level->Set(-98765.25);
  for (int i = 0; i < 1500; ++i) {
    lat->Record(i % 2 == 0 ? 2500.75 : 123456.0);
  }
  series.Sample(3600.5, registry);
  jobs->Add(1000.0);
  series.Sample(7200.25, registry);
  for (int i = 0; i < 1200; ++i) {
    flight.Record(1000.5 * i, SimEventType::kScaled, 12345, 1000, 2000, 4321.5);
  }
  std::ostringstream flight_json;
  flight.WriteJson(flight_json);
  return ExportPrometheusString(registry) +
         ExportJsonReportString(registry, &series, &flight) + flight_json.str();
}

TEST(ExporterTest, ExportsIgnoreTheGlobalLocale) {
  const std::string classic = AllExports();
  ASSERT_NE(classic.find("1234567.5"), std::string::npos);
  ScopedGlobalLocale comma(
      std::locale(std::locale::classic(), new CommaDecimalNumpunct));
  // The facet is live: a default stream now groups and uses a comma.
  std::ostringstream probe;
  probe << std::setprecision(17) << 1234567.5 << " " << 1500;
  ASSERT_EQ(probe.str(), "1.234.567,5 1.500");
  EXPECT_EQ(AllExports(), classic);
}

// ---------------------------------------------------------------------------
// End-to-end: simulator exports are bitwise thread-count invariant
// ---------------------------------------------------------------------------

// The golden-trace pinned scenario, parameterized over threads / faults / obs.
std::unique_ptr<Simulator> MakeScenario(int threads, bool faulted, bool obs_on,
                                        int flight_depth = 256) {
  SimulatorConfig config;
  config.seed = 7;
  config.max_sim_time_s = 2e5;
  config.threads = threads;
  config.obs.enabled = obs_on;
  config.obs.per_interval_series = obs_on;
  config.obs.flight_recorder_depth = flight_depth;
  if (faulted) {
    std::string error;
    const bool ok = ParseFaultPlan(
        "crash@1800:server=2,recover=5400;"
        "rack@4200:servers=6-8,recover=6600;"
        "slow@2400:factor=0.7,duration=1800",
        &config.fault.plan, &error);
    EXPECT_TRUE(ok) << error;
    config.fault.task_failure_prob = 0.02;
    config.fault.checkpoint_period_s = 3600.0;
  }
  WorkloadConfig workload;
  workload.num_jobs = 6;
  workload.arrival_window_s = 2400.0;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, BuildTestbed(),
                                     GenerateWorkload(workload, &rng));
}

// Deterministic fingerprint of a finished run's observability output: the
// profiling-free registry export, the full flight-recorder JSON (sequence
// numbers included), and the series row count.
std::string ObservabilityFingerprint(Simulator* sim) {
  ExportOptions options;
  options.include_profiling = false;
  std::ostringstream os;
  os << ExportPrometheusString(sim->registry(), options);
  sim->flight_recorder().WriteJson(os);
  os << "\nrows=" << sim->series().num_rows() << "\n";
  return os.str();
}

TEST(SimObservabilityTest, ExportsAreBitwiseIdenticalAcrossThreadsAndFaults) {
  for (const bool faulted : {false, true}) {
    std::unique_ptr<Simulator> base = MakeScenario(1, faulted, true);
    base->Run();
    const std::string want = ObservabilityFingerprint(base.get());
    EXPECT_NE(want.find("optimus_jobs_completed_total"), std::string::npos);
    for (const int threads : {2, 8}) {
      std::unique_ptr<Simulator> sim = MakeScenario(threads, faulted, true);
      sim->Run();
      EXPECT_EQ(ObservabilityFingerprint(sim.get()), want)
          << "observability diverged at threads=" << threads
          << " faulted=" << faulted;
    }
  }
}

TEST(SimObservabilityTest, DisablingObservabilityLeavesSimulationUnchanged) {
  std::unique_ptr<Simulator> on = MakeScenario(1, true, true);
  std::unique_ptr<Simulator> off = MakeScenario(1, true, false);
  const RunMetrics a = on->Run();
  const RunMetrics b = off->Run();
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.jcts, b.jcts);
  EXPECT_EQ(a.total_scalings, b.total_scalings);
  EXPECT_EQ(a.job_evictions, b.job_evictions);
  EXPECT_EQ(a.task_failures, b.task_failures);
  EXPECT_DOUBLE_EQ(a.rolled_back_steps, b.rolled_back_steps);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  // Off really is off.
  EXPECT_EQ(off->registry().size(), 0u);
  EXPECT_FALSE(off->flight_recorder().enabled());
  EXPECT_EQ(off->series().num_rows(), 0u);
}

TEST(SimObservabilityTest, RegistryMirrorsRunMetricsAndWallPhases) {
  std::unique_ptr<Simulator> sim = MakeScenario(1, true, true);
  const RunMetrics metrics = sim->Run();
  const MetricsRegistry& reg = sim->registry();

  auto counter = [&reg](const char* name) {
    const Metric* m = reg.Find(name);
    EXPECT_NE(m, nullptr) << name;
    return static_cast<const Counter*>(m)->value();
  };
  EXPECT_DOUBLE_EQ(counter("optimus_jobs_completed_total"), metrics.completed_jobs);
  EXPECT_DOUBLE_EQ(counter("optimus_scalings_total"), metrics.total_scalings);
  EXPECT_DOUBLE_EQ(counter("optimus_server_crashes_total"), metrics.server_crashes);
  EXPECT_DOUBLE_EQ(counter("optimus_job_evictions_total"), metrics.job_evictions);
  EXPECT_DOUBLE_EQ(counter("optimus_task_failures_total"), metrics.task_failures);
  EXPECT_DOUBLE_EQ(counter("optimus_checkpoints_total"), metrics.checkpoints_taken);
  EXPECT_DOUBLE_EQ(counter("optimus_rolled_back_steps_total"),
                   metrics.rolled_back_steps);
  EXPECT_DOUBLE_EQ(counter("optimus_audit_checks_total"), metrics.audit_checks);
  EXPECT_DOUBLE_EQ(counter("optimus_audit_violations_total"),
                   metrics.audit_violations);
  EXPECT_DOUBLE_EQ(counter("optimus_straggler_replacements_total"),
                   metrics.straggler_replacements);
  EXPECT_GT(counter("optimus_speed_probes_total"), 0.0);
  EXPECT_GE(counter("optimus_speed_probes_total"),
            counter("optimus_speed_evals_total"));
  EXPECT_GT(counter("optimus_alloc_grants_total"), 0.0);
  EXPECT_GT(counter("optimus_conv_fits_total"), 0.0);
  EXPECT_GT(counter("optimus_speedmodel_fits_total"), 0.0);

  // JCT histogram count equals completed jobs; its sum equals the JCT sum.
  const Metric* jct = reg.Find("optimus_jct_seconds");
  ASSERT_NE(jct, nullptr);
  const Histogram* h = static_cast<const Histogram*>(jct);
  EXPECT_EQ(h->count(), metrics.completed_jobs);
  double jct_sum = 0.0;
  for (double v : metrics.jcts) {
    jct_sum += v;
  }
  EXPECT_NEAR(h->sum(), jct_sum, 1e-6);

  // Wall phases: profiling gauges exist and mirror the RunMetrics fields.
  const Metric* wall = reg.Find("optimus_wall_schedule_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_TRUE(wall->profiling());
  EXPECT_DOUBLE_EQ(static_cast<const Gauge*>(wall)->value(),
                   metrics.wall_schedule_s);

  // Flight recorder saw the run's lifecycle.
  EXPECT_GT(sim->flight_recorder().total_recorded(), 0u);
  bool saw_crash = false;
  bool saw_audit = false;
  for (const FlightEvent& e : sim->flight_recorder().Events()) {
    saw_crash |= e.kind == SimEventType::kServerCrash;
    saw_audit |= e.kind == SimEventType::kAuditCheck;
  }
  EXPECT_TRUE(saw_audit);
  (void)saw_crash;  // the tail may have rotated past the early crashes
}

// `optimus_sim --jobs=30 --seed=7 --engine=E`: the CLI's single instrumented
// run.
std::unique_ptr<Simulator> MakeCliRun(SimEngine engine) {
  SimulatorConfig config;
  std::string error;
  EXPECT_TRUE(ApplySchedulerPolicy("optimus", &config, &error)) << error;
  config.engine = engine;
  config.seed = 7;
  config.straggler.injection_prob_per_interval = 0.12;
  WorkloadConfig workload;
  workload.num_jobs = 30;
  workload.target_steps_per_epoch = 80;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, BuildTestbed(),
                                     GenerateWorkload(workload, &rng));
}

// The registry's counters are views of the live totals, so an export after
// Run() agrees with RunMetrics on both engines — including the event
// engine's epoch completions after its last scheduling round.
TEST(SimObservabilityTest, ExportedCountersMatchRunMetricsOnBothEngines) {
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    std::unique_ptr<Simulator> sim = MakeCliRun(engine);
    const RunMetrics m = sim->Run();
    const MetricsRegistry& reg = sim->registry();
    auto counter = [&reg](const char* name) {
      const Metric* metric = reg.Find(name);
      EXPECT_NE(metric, nullptr) << name;
      return static_cast<const Counter*>(metric)->value();
    };
    const char* label = SimEngineName(engine);
    EXPECT_EQ(m.completed_jobs, 30) << label;
    EXPECT_EQ(counter("optimus_jobs_completed_total"), m.completed_jobs) << label;
    const auto* jct = static_cast<const Histogram*>(reg.Find("optimus_jct_seconds"));
    ASSERT_NE(jct, nullptr);
    EXPECT_EQ(jct->count(), m.completed_jobs - m.jobs_killed) << label;
    EXPECT_EQ(counter("optimus_events_processed_total"), m.events_processed)
        << label;
    EXPECT_EQ(counter("optimus_audit_checks_total"), m.audit_checks) << label;
  }
}

// The flight ring and the trace are two views of one event stream: every
// flight event of a kind the trace also keeps has a trace record with the
// same kind, time, job and allocation, and vice versa. A kill is `killed` in
// both.
TEST(SimObservabilityTest, FlightAndTraceShareOneVocabulary) {
  std::unique_ptr<Simulator> sim =
      MakeScenario(1, /*faulted=*/true, /*obs_on=*/true, /*flight_depth=*/1 << 16);
  sim->AdvanceTo(3000.0);
  int killed = -1;
  for (int id = 0; id < 6 && killed < 0; ++id) {
    if (sim->KillJob(id)) {
      killed = id;
    }
  }
  ASSERT_GE(killed, 0) << "every job completed before the kill";
  sim->Run();

  const FlightRecorder& flight = sim->flight_recorder();
  ASSERT_EQ(flight.size(), flight.total_recorded()) << "ring wrapped";
  // The ring kept everything, so the shared kinds match record for record.
  using Key = std::tuple<SimEventType, double, int, int, int>;
  std::multiset<Key> from_trace;
  for (const SimEvent& e : sim->trace().events()) {
    if (EventTypeInfo(e.type).in_flight) {
      from_trace.insert({e.type, e.time_s, e.job_id, e.num_ps, e.num_workers});
    }
  }
  std::multiset<Key> from_flight;
  for (const FlightEvent& e : flight.Events()) {
    if (EventTypeInfo(e.kind).in_trace) {
      from_flight.insert({e.kind, e.time_s, e.job_id, e.num_ps, e.num_workers});
    }
  }
  EXPECT_EQ(from_flight, from_trace);
  std::set<SimEventType> kinds;
  for (const Key& k : from_flight) {
    kinds.insert(std::get<0>(k));
  }
  EXPECT_EQ(kinds.count(SimEventType::kServerCrash), 1u);
  EXPECT_EQ(kinds.count(SimEventType::kCompleted), 1u);

  int flight_kills = 0;
  for (const FlightEvent& e : flight.Events()) {
    if (e.job_id == killed && e.kind == SimEventType::kKilled) {
      ++flight_kills;
      EXPECT_EQ(e.detail, "");
    }
    EXPECT_FALSE(e.job_id == killed && e.kind == SimEventType::kEvicted &&
                 e.detail == "killed");
  }
  EXPECT_EQ(flight_kills, 1);
  EXPECT_EQ(sim->trace().CountByType().at(SimEventType::kKilled), 1);
  std::ostringstream json;
  flight.WriteJson(json);
  EXPECT_NE(json.str().find("\"kind\": \"killed\""), std::string::npos);
}

}  // namespace
}  // namespace optimus
