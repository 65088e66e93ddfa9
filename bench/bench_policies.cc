// Policy-table bench: the full policy catalog compared on one scenario
// (BENCH_policies.json).
//
//   comparison — every policy in the table on scenarios/batch_adaptive.json
//       (synchronous communication-heavy jobs with wide admissible batch
//       ranges). The acceptance point: at least one policy other than
//       `optimus` / `optimus_rack` must beat plain `optimus` on average JCT —
//       the batch-adaptive goodput policy is the expected winner on this
//       workload. --smoke (tools/check.sh and CI) runs the same comparison.
//
// Bitwise determinism of every policy across threads and engines is tier-1's
// determinism sweep (tests/determinism_sweep_test.cc), which runs every
// policy in every committed scenario's grid.

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

namespace {

using namespace optimus;

// ---------------------------------------------------------------------------
// Section 1: full-catalog comparison on the batch-adaptive scenario.
// ---------------------------------------------------------------------------

bool RunComparison(const ScenarioSpec& scenario, JsonObject* section,
                   std::string* why) {
  const std::span<const SchedulerPolicyInfo> policies = Policies();
  TablePrinter table({"policy", "completed", "avg JCT (s)", "vs optimus"});
  double optimus_jct = 0.0;
  std::string best_other;
  double best_other_jct = 0.0;
  std::vector<JsonObject> rows;
  for (const SchedulerPolicyInfo& info : policies) {
    const std::string policy = info.name;
    const CellRun run = RunSim(scenario.MakeSimConfig(policy),
                               scenario.cluster.Build(),
                               scenario.JobsForRepeat());
    const double avg_jct = run.fp.metrics.avg_jct_s;
    if (policy == "optimus") {
      optimus_jct = avg_jct;
    } else if (policy != "optimus_rack" &&
               (best_other.empty() || avg_jct < best_other_jct)) {
      best_other = policy;
      best_other_jct = avg_jct;
    }
    table.AddRow({policy, std::to_string(run.fp.metrics.completed_jobs),
                  TablePrinter::FormatDouble(avg_jct, 1),
                  optimus_jct > 0.0
                      ? TablePrinter::FormatDouble(avg_jct / optimus_jct, 2) + "x"
                      : "-"});
    JsonObject row;
    row.Set("policy", policy);
    row.Set("completed_jobs", run.fp.metrics.completed_jobs);
    row.Set("avg_jct_s", avg_jct);
    row.Set("makespan_s", run.fp.metrics.makespan_s);
    row.Set("total_scalings", run.fp.metrics.total_scalings);
    row.Set("trace_digest", DigestHex(run.fp.trace_digest));
    SetPerfColumns(&row, run.wall_s, run.sim_s);
    rows.push_back(row);
  }
  table.Print(std::cout);

  const bool adaptive_wins =
      !best_other.empty() && best_other_jct < optimus_jct;
  std::cout << "  best policy other than optimus / optimus_rack: "
            << (best_other.empty() ? "(none)" : best_other) << " at "
            << TablePrinter::FormatDouble(best_other_jct, 1) << " s vs optimus "
            << TablePrinter::FormatDouble(optimus_jct, 1) << " s ("
            << (adaptive_wins ? "wins" : "OPTIMUS WINS") << ")\n";
  section->Set("rows", rows);
  section->Set("policies_compared", static_cast<int64_t>(policies.size()));
  section->Set("optimus_avg_jct_s", optimus_jct);
  section->Set("best_other_policy", best_other);
  section->Set("best_other_avg_jct_s", best_other_jct);
  section->Set("adaptive_wins", adaptive_wins);
  if (!adaptive_wins) {
    *why = "no policy other than optimus / optimus_rack beat optimus (" +
           std::to_string(optimus_jct) + " s) on " + scenario.name;
  }
  return adaptive_wins;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_policies.json");
  const std::string scenario_path =
      flags.GetString("scenario", "scenarios/batch_adaptive.json");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }

  PrintExperimentHeader(
      "EXT: policy families",
      "Full policy table (goodput / synergy / dl2 included) on "
      "the batch-adaptive workload",
      "a policy other than optimus / optimus_rack (goodput expected) wins "
      "average JCT on the batch-adaptive scenario");

  ScenarioSpec scenario;
  std::string error;
  if (!LoadScenarioFile(scenario_path, &scenario, &error)) {
    std::cerr << "bad scenario: " << error << "\n";
    return 1;
  }

  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("scenario", scenario_path);

  std::cout << "\nPolicy catalog on " << scenario_path << ":\n";
  JsonObject comparison;
  std::string failure;
  const bool ok = RunComparison(scenario, &comparison, &failure);
  section.Set("comparison", comparison);

  if (!ok) {
    std::cerr << "\nFAILURE: " << failure << "\n";
  }
  section.Set("ok", ok);
  if (WriteBenchJsonSection(json_path, "policies", section)) {
    std::cout << "wrote section policies to " << json_path << "\n";
  }
  return ok ? 0 : 3;
}
