// Extension (fault tolerance, §5.4): all four schedulers on the testbed
// workload under a fixed fault plan — one single-server crash, one
// rack-style correlated outage, one transient cluster-wide slowdown, plus a
// small per-task container-death probability. Every run executes with the
// invariant auditor enabled; any violation fails the bench.
//
// The plan is scripted (not sampled), so every scheduler faces the identical
// fault timeline and differences come from how each policy reallocates around
// the holes. See docs/FAULTS.md for the plan grammar and fault semantics.

#include <iostream>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/logging.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/fault_injector.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "EXT: fault tolerance",
      "All four schedulers under a fixed crash/rack/slowdown plan",
      "Optimus keeps its JCT lead under faults: checkpoint-restore stalls are "
      "charged to every scheduler alike, but Optimus' marginal-gain "
      "reallocation backfills evicted jobs onto the surviving servers first. "
      "The auditor must report zero violations for every policy");

  // Fixed plan: server 3 dies at 2400 s and returns at 30000 s; servers 7-9
  // (a \"rack\") go down together at 12000 s for 9600 s; a 0.6x cluster-wide
  // slowdown burst covers 6000-9600 s.
  const char* kPlan =
      "crash@2400:server=3,recover=30000;"
      "rack@12000:servers=7-9,recover=21600;"
      "slow@6000:factor=0.6,duration=3600";

  TablePrinter table({"scheduler", "avg JCT (s)", "JCT (norm)", "makespan (s)",
                      "evictions/run", "task fails/run", "audit violations"});
  std::vector<JsonObject> json_rows;
  double base_jct = 0.0;
  int64_t total_violations = 0;
  for (const char* policy : {"optimus", "drf", "tetris", "fifo"}) {
    const std::string name = FindPolicy(policy)->display_name;
    ExperimentConfig config;
    ApplyTestbedConditions(&config.sim);
    ApplySchedulerPolicy(policy, &config.sim);
    std::string parse_error;
    OPTIMUS_CHECK(ParseFaultPlan(kPlan, &config.sim.fault.plan, &parse_error))
        << parse_error;
    config.sim.fault.task_failure_prob = 0.02;
    config.sim.fault.checkpoint_period_s = 3600.0;
    config.sim.audit = true;
    config.workload.num_jobs = 9;
    config.workload.target_steps_per_epoch = 80;
    config.repeats = 3;
    config.label = name;
    ExperimentResult r = RunExperiment(config, [] { return BuildTestbed(); });
    if (base_jct == 0.0) {
      base_jct = r.avg_jct_mean;
    }
    total_violations += r.audit_violations_total;
    table.AddRow({name, TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_mean / base_jct, 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.job_evictions_mean, 1),
                  TablePrinter::FormatDouble(r.task_failures_mean, 1),
                  std::to_string(r.audit_violations_total)});
    JsonObject jr;
    jr.Set("scheduler", name);
    jr.Set("avg_jct_s", r.avg_jct_mean);
    jr.Set("makespan_s", r.makespan_mean);
    jr.Set("evictions_per_run", r.job_evictions_mean);
    jr.Set("task_failures_per_run", r.task_failures_mean);
    jr.Set("audit_violations", r.audit_violations_total);
    json_rows.push_back(jr);
  }
  table.Print(std::cout);

  JsonObject section;
  section.Set("plan", kPlan);
  section.Set("task_failure_prob", 0.02);
  section.Set("checkpoint_period_s", 3600.0);
  section.Set("rows", json_rows);
  WriteBenchJsonSection("BENCH_faults.json", "faults", section);

  if (total_violations > 0) {
    std::cerr << "invariant audit FAILED: " << total_violations
              << " violation(s) across schedulers\n";
    return 3;
  }
  return 0;
}
