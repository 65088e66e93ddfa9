#include "src/workload/sweep.h"

#include <algorithm>

#include "src/common/json_writer.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/threadpool.h"
#include "src/obs/exporters.h"

namespace optimus {

namespace {

// One (scenario, policy, repeat) unit and its index-owned result slot.
struct Unit {
  const ScenarioSpec* scenario = nullptr;
  const std::string* policy = nullptr;
  int repeat = 0;
  size_t cell = 0;  // index into the cell grid
};

struct UnitResult {
  RunMetrics metrics;
  std::string run_report;  // repeat 0 only
};

// `value` over `baseline` (0 for a non-positive baseline).
double Ratio(double value, double baseline) {
  return baseline > 0.0 ? value / baseline : 0.0;
}

// Aggregates `runs`, given in repeat order, into `out`.
void AggregateRepeats(const std::vector<RunMetrics>& runs, RepeatAggregate* out) {
  std::vector<double> jcts;
  std::vector<double> makespans;
  std::vector<double> overheads;
  std::vector<double> task_failures;
  std::vector<double> evictions;
  int64_t violations = 0;
  double completed = 0.0;
  double total = 0.0;
  for (const RunMetrics& m : runs) {
    jcts.push_back(m.avg_jct_s);
    makespans.push_back(m.makespan_s);
    overheads.push_back(m.scaling_overhead_fraction);
    task_failures.push_back(static_cast<double>(m.task_failures));
    evictions.push_back(static_cast<double>(m.job_evictions));
    violations += m.audit_violations;
    completed += m.completed_jobs;
    total += m.total_jobs;
  }
  out->avg_jct_mean = Mean(jcts);
  out->avg_jct_stddev = StdDev(jcts);
  out->makespan_mean = Mean(makespans);
  out->makespan_stddev = StdDev(makespans);
  out->scaling_overhead_mean = Mean(overheads);
  out->task_failures_mean = Mean(task_failures);
  out->job_evictions_mean = Mean(evictions);
  out->audit_violations_total = violations;
  out->completed_fraction = total > 0.0 ? completed / total : 0.0;
}

}  // namespace

SweepResult RunSweep(const std::vector<ScenarioSpec>& scenarios,
                     const SweepOptions& options) {
  // Flatten the grid: scenario-major, then policy, then repeat. The unit
  // list fixes both the execution indices and the aggregation order.
  std::vector<Unit> units;
  size_t cell_count = 0;
  for (const ScenarioSpec& scenario : scenarios) {
    {
      std::vector<std::string> errors;
      OPTIMUS_CHECK(scenario.Validate(&errors))
          << "invalid scenario '" << scenario.name << "' handed to RunSweep";
    }
    for (const std::string& policy : scenario.policies) {
      for (int r = 0; r < scenario.repeats; ++r) {
        units.push_back(Unit{&scenario, &policy, r, cell_count});
      }
      ++cell_count;
    }
  }

  std::vector<UnitResult> slots(units.size());
  const auto run_one = [&](int64_t i) {
    const Unit& unit = units[static_cast<size_t>(i)];
    SimulatorConfig config =
        unit.scenario->MakeSimConfig(*unit.policy, unit.repeat);
    // Cell-level parallelism only: the simulator itself stays serial, and
    // the observability walk is skipped except on the reported repeat.
    config.threads = 1;
    const bool report = options.capture_run_reports && unit.repeat == 0;
    config.obs.enabled = report;
    config.record_timeline = false;
    Simulator sim(config, unit.scenario->cluster.Build(),
                  unit.scenario->JobsForRepeat(unit.repeat));
    UnitResult& slot = slots[static_cast<size_t>(i)];
    slot.metrics = sim.Run();
    if (report) {
      ExportOptions export_options;
      export_options.include_profiling = false;  // keep the bytes deterministic
      slot.run_report = ExportJsonReportString(sim.registry(), &sim.series(),
                                               &sim.flight_recorder(),
                                               export_options);
    }
  };
  const int threads = options.threads > 0 ? options.threads : DefaultThreadCount();
  ThreadPool pool(std::min<int64_t>(threads, static_cast<int64_t>(units.size())));
  pool.ParallelFor(static_cast<int64_t>(units.size()), run_one);

  // Aggregate in grid order.
  SweepResult result;
  result.cells.resize(cell_count);
  for (size_t i = 0; i < units.size(); ++i) {
    const Unit& unit = units[i];
    SweepCellResult& cell = result.cells[unit.cell];
    cell.runs.push_back(std::move(slots[i].metrics));
    if (unit.repeat == 0) {
      cell.scenario = unit.scenario->name;
      cell.policy = *unit.policy;
      // RunSweep takes validated scenarios: every policy has a row.
      cell.display_name = FindPolicy(*unit.policy)->display_name;
      cell.repeats = unit.scenario->repeats;
      cell.jobs = unit.scenario->workload.num_jobs;
      cell.run_report = std::move(slots[i].run_report);
    }
  }
  for (SweepCellResult& cell : result.cells) {
    AggregateRepeats(cell.runs, &cell);
    result.audit_violations_total += cell.audit_violations_total;
    result.completed_fraction_min =
        std::min(result.completed_fraction_min, cell.completed_fraction);
  }

  // Baseline ratios: each scenario normalizes against its first policy.
  size_t cursor = 0;
  for (const ScenarioSpec& scenario : scenarios) {
    const SweepCellResult& baseline = result.cells[cursor];
    for (size_t p = 0; p < scenario.policies.size(); ++p) {
      SweepCellResult& cell = result.cells[cursor + p];
      cell.jct_vs_baseline = Ratio(cell.avg_jct_mean, baseline.avg_jct_mean);
      cell.makespan_vs_baseline = Ratio(cell.makespan_mean, baseline.makespan_mean);
    }
    cursor += scenario.policies.size();
  }
  return result;
}

std::string MergedSweepJson(const std::vector<ScenarioSpec>& scenarios,
                            const SweepResult& result) {
  JsonObject root;
  root.Set("format", "optimus-sweep-report-v1");
  root.Set("schema", kScenarioSchemaVersion);

  std::vector<JsonObject> scenario_rows;
  for (const ScenarioSpec& scenario : scenarios) {
    JsonObject row;
    row.Set("name", scenario.name);
    if (!scenario.description.empty()) {
      row.Set("description", scenario.description);
    }
    row.Set("seed", static_cast<int64_t>(scenario.seed));
    row.Set("repeats", scenario.repeats);
    row.Set("jobs", scenario.workload.num_jobs);
    // Explicit jobs were drawn by no generator.
    const bool explicit_jobs = !scenario.jobs.empty();
    row.Set("arrivals",
            explicit_jobs ? "explicit" : ArrivalKindName(scenario.workload.arrivals.kind));
    row.Set("sizes", explicit_jobs ? "explicit" : JobSizeKindName(scenario.workload.sizes.kind));
    row.Set("servers", scenario.cluster.NumServers());
    row.Set("racks", scenario.cluster.NumRacks());
    row.Set("faulted", scenario.sim.fault.enabled());
    row.Set("policies", scenario.policies);
    scenario_rows.push_back(std::move(row));
  }
  root.Set("scenarios", scenario_rows);

  std::vector<JsonObject> cell_rows;
  for (const SweepCellResult& cell : result.cells) {
    JsonObject row;
    row.Set("scenario", cell.scenario);
    row.Set("policy", cell.policy);
    row.Set("display_name", cell.display_name);
    row.Set("repeats", cell.repeats);
    row.Set("jobs", cell.jobs);
    row.Set("avg_jct_s_mean", cell.avg_jct_mean);
    row.Set("avg_jct_s_stddev", cell.avg_jct_stddev);
    row.Set("makespan_s_mean", cell.makespan_mean);
    row.Set("makespan_s_stddev", cell.makespan_stddev);
    row.Set("scaling_overhead_mean", cell.scaling_overhead_mean);
    row.Set("completed_fraction", cell.completed_fraction);
    row.Set("job_evictions_mean", cell.job_evictions_mean);
    row.Set("task_failures_mean", cell.task_failures_mean);
    row.Set("audit_violations", cell.audit_violations_total);
    row.Set("jct_vs_baseline", cell.jct_vs_baseline);
    row.Set("makespan_vs_baseline", cell.makespan_vs_baseline);
    cell_rows.push_back(std::move(row));
  }
  root.Set("cells", cell_rows);

  JsonObject totals;
  totals.Set("cells", static_cast<int64_t>(result.cells.size()));
  totals.Set("audit_violations", result.audit_violations_total);
  totals.Set("completed_fraction_min", result.completed_fraction_min);
  root.Set("totals", totals);
  return root.ToString() + "\n";
}

}  // namespace optimus
