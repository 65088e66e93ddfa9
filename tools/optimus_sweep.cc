// optimus_sweep — scenario grid runner.
//
// Loads one or more scenario-v2 JSON files (docs/SCENARIOS.md), fans every
// (scenario, policy, repeat) cell out over the deterministic ThreadPool, and
// writes:
//   - a merged comparison report (optimus-sweep-report-v1 JSON) to --out,
//   - optionally one optimus-run-report-v1 per (scenario, policy) cell into
//     --report-dir,
//   - a human-readable comparison table to stdout.
// All outputs are bitwise identical for any --threads value.
//
// Examples:
//   optimus_sweep scenarios/*.json --out=BENCH_scenarios.json
//   optimus_sweep scenarios/fig11_testbed.json --threads=8
//       --report-dir=/tmp/reports

#include <filesystem>
#include <fstream>
#include <iostream>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/workload/scenario.h"
#include "src/workload/sweep.h"

namespace {

using namespace optimus;

constexpr char kUsage[] = R"(optimus_sweep: scenario grid runner

Usage: optimus_sweep SCENARIO.json [SCENARIO.json ...] [flags]

Flags:
  --out=PATH          merged optimus-sweep-report-v1 JSON
                      (default BENCH_scenarios.json)
  --report-dir=DIR    write one optimus-run-report-v1 per (scenario, policy)
                      cell as DIR/<scenario>__<policy>.json (default: off)
  --threads=N         threads for the grid, the caller included; the merged
                      report is bitwise identical for any value. 0 =
                      OPTIMUS_THREADS env var, then 1 (default 0)
  --engine=NAME       override every scenario's simulation engine
                      (interval|events; default: what each file says)
  --list-policies     print the SchedulerRegistry catalog and exit
  --help              this message

Scenario files are scenario-v2 JSON; scenario-v1 files still load
(docs/SCENARIOS.md). Exit codes: 0 = every job in every cell completed,
1 = some did not, 2 = bad usage or scenario, 3 = invariant-audit violation.
)";

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  if (flags.GetBool("list-policies", false)) {
    TablePrinter table({"policy", "display", "description"});
    for (const std::string& name : SchedulerRegistry::Global().Names()) {
      const SchedulerPolicyInfo* info = SchedulerRegistry::Global().Find(name);
      table.AddRow({info->name, info->display_name, info->description});
    }
    table.Print(std::cout);
    return 0;
  }

  const std::string out_path = flags.GetString("out", "BENCH_scenarios.json");
  const std::string report_dir = flags.GetString("report-dir", "");
  const int threads = flags.GetInt32("threads", 0);
  const std::string engine_name = flags.GetString("engine", "");

  const std::vector<std::string> unknown = flags.UnconsumedKeys();
  if (!unknown.empty()) {
    std::cerr << "unknown flag(s):";
    for (const std::string& k : unknown) {
      std::cerr << " --" << k;
    }
    std::cerr << "\n\n" << kUsage;
    return 2;
  }
  if (flags.positional().empty()) {
    std::cerr << "no scenario files given\n\n" << kUsage;
    return 2;
  }
  SimEngine engine = SimEngine::kInterval;
  if (!engine_name.empty() && !ParseSimEngine(engine_name, &engine)) {
    std::cerr << "unknown --engine '" << engine_name
              << "' (expected interval|events)\n";
    return 2;
  }

  std::vector<ScenarioSpec> scenarios;
  for (const std::string& path : flags.positional()) {
    ScenarioSpec scenario;
    std::string error;
    if (!LoadScenarioFile(path, &scenario, &error)) {
      std::cerr << "bad scenario: " << error << "\n";
      return 2;
    }
    for (const ScenarioSpec& existing : scenarios) {
      if (existing.name == scenario.name) {
        std::cerr << "duplicate scenario name '" << scenario.name
                  << "' (names key report files and table rows)\n";
        return 2;
      }
    }
    if (!engine_name.empty()) {
      scenario.sim.engine = engine;
    }
    scenarios.push_back(std::move(scenario));
  }

  SweepOptions options;
  options.threads = threads;
  options.capture_run_reports = !report_dir.empty();
  const SweepResult result = RunSweep(scenarios, options);

  if (!report_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(report_dir, ec);
    if (ec) {
      std::cerr << "cannot create " << report_dir << ": " << ec.message() << "\n";
      return 2;
    }
    for (const SweepCellResult& cell : result.cells) {
      const std::string path =
          report_dir + "/" + cell.scenario + "__" + cell.policy + ".json";
      std::ofstream os(path);
      OPTIMUS_CHECK(os.good()) << "cannot write " << path;
      os << cell.run_report;
    }
    std::cout << "wrote " << result.cells.size() << " run report(s) to "
              << report_dir << "\n";
  }

  {
    std::ofstream os(out_path);
    OPTIMUS_CHECK(os.good()) << "cannot write " << out_path;
    os << MergedSweepJson(scenarios, result);
    std::cout << "wrote " << result.cells.size() << " cell(s) to " << out_path
              << "\n";
  }

  TablePrinter table({"scenario", "policy", "avg JCT (s)", "JCT stddev",
                      "vs baseline", "makespan (s)", "completed"});
  for (const SweepCellResult& cell : result.cells) {
    table.AddRow({cell.scenario, cell.display_name,
                  TablePrinter::FormatDouble(cell.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(cell.avg_jct_stddev, 0),
                  TablePrinter::FormatDouble(cell.jct_vs_baseline, 2) + "x",
                  TablePrinter::FormatDouble(cell.makespan_mean, 0),
                  TablePrinter::FormatDouble(cell.completed_fraction * 100.0, 0) +
                      "%"});
  }
  table.Print(std::cout);

  if (result.audit_violations_total > 0) {
    std::cerr << "invariant audit FAILED in " << result.audit_violations_total
              << " check(s) across the grid\n";
    return 3;
  }
  return result.completed_fraction_min == 1.0 ? 0 : 1;
}
