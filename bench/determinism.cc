#include "bench/determinism.h"

#include <chrono>
#include <cstdio>
#include <iostream>

namespace optimus {

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

bool RunFingerprint::Matches(const RunFingerprint& other, std::string* why) const {
  auto fail = [&](const std::string& what) {
    *why = what;
    return false;
  };
  if (jcts != other.jcts) return fail("jcts");
  if (completed != other.completed) return fail("completed_jobs");
  if (events_processed != other.events_processed) {
    return fail("events_processed");
  }
  if (total_scalings != other.total_scalings) return fail("total_scalings");
  if (job_evictions != other.job_evictions) return fail("job_evictions");
  if (task_failures != other.task_failures) return fail("task_failures");
  if (rolled_back_steps != other.rolled_back_steps) {
    return fail("rolled_back_steps");
  }
  if (audit_violations != other.audit_violations) {
    return fail("audit_violations");
  }
  if (trace_digest != other.trace_digest) return fail("trace_digest");
  if (trace_records != other.trace_records) return fail("trace_records");
  if (net_solves != other.net_solves) return fail("net_solves");
  if (net_flows != other.net_flows) return fail("net_flows");
  if (net_contended_flows != other.net_contended_flows) {
    return fail("net_contended_flows");
  }
  return true;
}

CellRun RunSim(const SimulatorConfig& config, std::vector<Server> servers,
               std::vector<JobSpec> specs) {
  Simulator sim(config, std::move(servers), std::move(specs));
  CellRun run;
  const auto start = std::chrono::steady_clock::now();
  run.metrics = sim.Run();
  const auto end = std::chrono::steady_clock::now();
  run.wall_s = std::chrono::duration<double>(end - start).count();
  run.sim_s = sim.now_s();
  if (sim.network() != nullptr) {
    run.net = sim.network()->stats();
  }
  run.fp.jcts = run.metrics.jcts;
  run.fp.completed = run.metrics.completed_jobs;
  run.fp.events_processed = run.metrics.events_processed;
  run.fp.total_scalings = run.metrics.total_scalings;
  run.fp.job_evictions = run.metrics.job_evictions;
  run.fp.task_failures = run.metrics.task_failures;
  run.fp.rolled_back_steps = run.metrics.rolled_back_steps;
  run.fp.audit_violations = run.metrics.audit_violations;
  run.fp.trace_digest = sim.trace().digest();
  run.fp.trace_records = static_cast<int64_t>(sim.trace().size());
  run.fp.net_solves = run.net.solves;
  run.fp.net_flows = run.net.flows;
  run.fp.net_contended_flows = run.net.contended_flows;
  return run;
}

bool RunDeterminismSweep(const ScenarioSpec& scenario, const std::string& policy,
                         const SweepGrid& grid, const JsonObject& row_prefix,
                         std::vector<JsonObject>* rows, std::string* why) {
  std::vector<std::string> columns = {"policy", "engine", "threads", "wall (s)",
                                      "completed", "trace digest"};
  if (grid.net_counters) {
    columns.insert(columns.end(), {"net solves", "contended"});
  }
  columns.push_back("match");
  TablePrinter table(columns);
  bool ok = true;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    bool have_reference = false;
    RunFingerprint reference;
    for (const int threads : grid.threads) {
      SimulatorConfig config = scenario.MakeSimConfig(policy);
      config.engine = engine;
      config.threads = threads;
      const CellRun run =
          RunSim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
      std::string mismatch;
      bool match = true;
      if (!have_reference) {
        reference = run.fp;
        have_reference = true;
      } else if (!run.fp.Matches(reference, &mismatch)) {
        match = false;
        ok = false;
        *why = scenario.name + ": " + policy + " " + SimEngineName(engine) +
               " threads=" + std::to_string(threads) + " diverged on " + mismatch;
      }
      std::vector<std::string> cells = {
          policy, SimEngineName(engine), std::to_string(threads),
          TablePrinter::FormatDouble(run.wall_s, 3), std::to_string(run.fp.completed),
          DigestHex(run.fp.trace_digest)};
      JsonObject row = row_prefix;
      row.Set("engine", SimEngineName(engine));
      row.Set("threads", threads);
      row.Set("completed_jobs", run.fp.completed);
      row.Set("trace_digest", DigestHex(run.fp.trace_digest));
      row.Set("trace_records", run.fp.trace_records);
      if (grid.net_counters) {
        cells.push_back(std::to_string(run.fp.net_solves));
        cells.push_back(std::to_string(run.fp.net_contended_flows));
        row.Set("net_solves", run.fp.net_solves);
        row.Set("net_flows", run.fp.net_flows);
        row.Set("net_contended_flows", run.fp.net_contended_flows);
      }
      cells.push_back(match ? "ok" : "DIVERGED");
      row.Set("match", match);
      SetPerfColumns(&row, run.wall_s, run.sim_s);
      table.AddRow(cells);
      rows->push_back(row);
    }
  }
  table.Print(std::cout);
  return ok;
}

}  // namespace optimus
