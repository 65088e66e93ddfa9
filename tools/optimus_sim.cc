// optimus_sim — command-line driver for the cluster simulator.
//
// Runs one workload under one scheduling policy and prints metrics; can dump
// the per-interval timeline and the lifecycle event trace as CSV for offline
// analysis. Policies come from the policy table (`--policy list` shows the
// catalog), and whole experiments can be described declaratively with a
// scenario-v2 JSON file (`--scenario`, docs/SCENARIOS.md).
//
// Examples:
//   optimus_sim --policy=optimus --jobs=12 --seed=7
//   optimus_sim --policy=drf --servers=40 --arrivals=poisson --repeats=3
//   optimus_sim --policy list
//   optimus_sim --scenario=scenarios/fig11_testbed.json
//   optimus_sim --scenario=scenarios/fig11_testbed.json --policy=tetris
//               --trace-csv=/tmp/events.csv

#include <fstream>
#include <iostream>

#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/obs/exporters.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/trace_replay.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"
#include "src/workload/sweep.h"

namespace {

using namespace optimus;

// The policy list in --help is generated from the policy table, so a new row
// shows up with no CLI edit.
std::string Usage() {
  std::string policies;
  for (const SchedulerPolicyInfo& info : Policies()) {
    policies += (policies.empty() ? "" : "|") + std::string(info.name);
  }
  std::string usage =
      "optimus_sim: deep-learning cluster scheduling simulator\n"
      "\n"
      "Flags:\n"
      "  --policy=" + policies + "|list\n"
      "                                        scheduling policy from the\n"
      "                                        policy table (default optimus);\n"
      "                                        `list` prints the catalog\n"
      "  --format=table|json                   output format for `--policy list`\n"
      "                                        (default table)\n"
      "  --scenario=FILE                       run a scenario-v2 JSON experiment\n"
      "                                        (docs/SCENARIOS.md); --policy, --seed,\n"
      "                                        --repeats, --threads override the file\n"
      "  --jobs=N                              number of jobs (default 9)\n"
      "  --servers=N                           uniform cluster size; 0 = paper's\n"
      "                                        13-server testbed (default 0)\n"
      "  --arrivals=uniform|poisson|trace      arrival process (default uniform)\n"
      "  --steps-per-epoch=N                   dataset downscaling cap (default 80)\n"
      "  --interval=SECONDS                    scheduling interval (default 600)\n"
      "  --engine=interval|events              simulation engine (default interval):\n"
      "                                        `events` advances jobs by discrete\n"
      "                                        epoch/fault/round events instead of\n"
      "                                        fixed-interval polling; scheduling\n"
      "                                        rounds keep the same cadence\n"
      "                                        (docs/ALGORITHMS.md section 16)\n"
      "  --seed=N                              workload + simulation seed (default 42)\n"
      "  --repeats=N                           averaged repeats (default 1)\n"
      "  --stragglers=P                        injection prob/job/interval (default 0.12)\n"
      "  --fault-plan=SPEC|@FILE               scripted server crashes / rack outages /\n"
      "                                        slowdowns (grammar: docs/FAULTS.md)\n"
      "  --task-failure-prob=P                 per-task per-interval container-death\n"
      "                                        probability (default 0)\n"
      "  --checkpoint-period=SECONDS           periodic durable checkpoints; 0 =\n"
      "                                        checkpoint only on scalings (default 0)\n"
      "  --audit / --no-audit                  invariant auditor (default on); any\n"
      "                                        violation makes the run exit 3\n"
      "  --background-share=F                  mixed-workload reservation (default 0)\n"
      "  --oracle                              ground-truth estimates, no online fitting\n"
      "  --threads=N                           threads, the caller included, for\n"
      "                                        experiment repeats, scenario grids,\n"
      "                                        and the simulator's per-job fan-outs:\n"
      "                                        the interval advance (AdvanceJob),\n"
      "                                        events-engine model refits\n"
      "                                        (RefreshModels), and per-arrival\n"
      "                                        pre-run sampling; all metrics are\n"
      "                                        bitwise identical for any value.\n"
      "                                        0 = OPTIMUS_THREADS env var, then 1\n"
      "                                        (default 0)\n"
      "  --trace-csv=PATH                      write the event trace (repeats=1 only)\n"
      "  --timeline-csv=PATH                   write the interval timeline (repeats=1)\n"
      "  --metrics-out=PATH                    export the metrics registry after the\n"
      "                                        run (repeats=1 only; docs/OBSERVABILITY.md)\n"
      "  --metrics-format=prom|json            export format (default prom); json also\n"
      "                                        samples the per-interval series\n"
      "  --flight-recorder-depth=N             recent-event ring depth, dumped on\n"
      "                                        invariant violations (default 256; 0 off)\n"
      "  --workload-csv=PATH                   replay a workload trace instead of\n"
      "                                        generating one (repeats=1 only)\n"
      "  --dump-workload-csv=PATH              write the generated workload as CSV\n"
      "  --help                                this message\n";
  return usage;
}

// Machine-readable policy catalog (`--policy list --format=json`): one object
// per policy with its placement and trait set, so harnesses can
// discover capabilities without parsing the human table.
int PrintPolicyListJson() {
  std::cout << "[\n";
  bool first = true;
  for (const SchedulerPolicyInfo& info : Policies()) {
    if (!first) {
      std::cout << ",\n";
    }
    first = false;
    const PolicyTraits& t = info.traits;
    std::cout << "  {\"name\": " << EncodeJsonString(info.name) << ", "
              << "\"display_name\": " << EncodeJsonString(info.display_name) << ", "
              << "\"description\": " << EncodeJsonString(info.description) << ", "
              << "\"placement\": \"" << PlacementPolicyName(info.placement)
              << "\", "
              << "\"traits\": {"
              << "\"use_paa\": " << (t.use_paa ? "true" : "false") << ", "
              << "\"straggler_handling\": "
              << (t.straggler_handling ? "true" : "false") << ", "
              << "\"young_job_priority_factor\": " << t.young_job_priority_factor
              << ", "
              << "\"adapts_batch\": " << (t.adapts_batch ? "true" : "false")
              << ", "
              << "\"uses_sensitivity\": "
              << (t.uses_sensitivity ? "true" : "false") << ", "
              << "\"scaling_hysteresis\": "
              << (t.scaling_hysteresis ? "true" : "false") << "}}";
  }
  std::cout << "\n]\n";
  return 0;
}

int PrintPolicyList(const std::string& format) {
  if (format == "json") {
    return PrintPolicyListJson();
  }
  if (format != "table") {
    std::cerr << "unknown --format '" << format << "' (expected table|json)\n";
    return 2;
  }
  TablePrinter table({"policy", "display", "hysteresis", "description"});
  for (const SchedulerPolicyInfo& info : Policies()) {
    table.AddRow({info.name, info.display_name,
                  info.traits.scaling_hysteresis ? "on" : "off",
                  info.description});
  }
  table.Print(std::cout);
  return 0;
}

bool ParseArrivals(const std::string& name, ArrivalProcess* out) {
  if (name == "uniform") {
    *out = ArrivalProcess::kUniformRandom;
    return true;
  }
  if (name == "poisson") {
    *out = ArrivalProcess::kPoisson;
    return true;
  }
  if (name == "trace") {
    *out = ArrivalProcess::kGoogleTrace;
    return true;
  }
  return false;
}

// Prints the `field: problem` lines of a failed Validate; returns the
// bad-usage exit code.
int ReportInvalid(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::cerr << "invalid configuration: " << e << "\n";
  }
  return 2;
}

// Outputs of the single instrumented run path (all optional).
struct OutputFiles {
  std::string trace_csv;
  std::string timeline_csv;
  std::string metrics_out;
  std::string metrics_format = "prom";
  std::string dump_workload_csv;

  bool any() const {
    return !trace_csv.empty() || !timeline_csv.empty() || !metrics_out.empty() ||
           !dump_workload_csv.empty();
  }
};

// Runs one fully instrumented simulation and writes the requested artifacts.
// Returns the process exit code.
int RunSingle(const SimulatorConfig& sim_config, std::vector<Server> servers,
              std::vector<JobSpec> specs, const std::string& policy_name,
              const OutputFiles& out) {
  if (!out.dump_workload_csv.empty()) {
    std::ofstream os(out.dump_workload_csv);
    OPTIMUS_CHECK(os.good()) << "cannot write " << out.dump_workload_csv;
    WriteWorkloadCsv(specs, os);
    std::cout << "wrote " << specs.size() << " jobs to " << out.dump_workload_csv
              << "\n";
  }
  Simulator sim(sim_config, std::move(servers), std::move(specs));
  RunMetrics metrics = sim.Run();
  if (!out.trace_csv.empty()) {
    std::ofstream os(out.trace_csv);
    OPTIMUS_CHECK(os.good()) << "cannot write " << out.trace_csv;
    sim.trace().WriteCsv(os);
    std::cout << "wrote " << sim.trace().size() << " events to " << out.trace_csv
              << "\n";
  }
  if (!out.timeline_csv.empty()) {
    std::ofstream os(out.timeline_csv);
    OPTIMUS_CHECK(os.good()) << "cannot write " << out.timeline_csv;
    os << "time_s,running_tasks,worker_cpu_util_pct,ps_cpu_util_pct\n";
    for (const TimelinePoint& p : metrics.timeline) {
      os << p.time_s << "," << p.running_tasks << "," << p.worker_cpu_util_pct
         << "," << p.ps_cpu_util_pct << "\n";
    }
    std::cout << "wrote " << metrics.timeline.size() << " timeline points to "
              << out.timeline_csv << "\n";
  }
  if (!out.metrics_out.empty()) {
    std::ofstream os(out.metrics_out);
    OPTIMUS_CHECK(os.good()) << "cannot write " << out.metrics_out;
    if (out.metrics_format == "json") {
      ExportJsonReport(sim.registry(), &sim.series(), &sim.flight_recorder(), os);
    } else {
      ExportPrometheus(sim.registry(), os);
    }
    std::cout << "wrote " << sim.registry().size() << " metrics ("
              << out.metrics_format << ") to " << out.metrics_out << "\n";
  }
  std::cout << "policy " << policy_name << ": completed " << metrics.completed_jobs
            << "/" << metrics.total_jobs << ", avg JCT "
            << TablePrinter::FormatDouble(metrics.avg_jct_s, 0) << " s, makespan "
            << TablePrinter::FormatDouble(metrics.makespan_s, 0) << " s\n";
  if (sim_config.fault.enabled()) {
    std::cout << "faults: " << metrics.server_crashes << " crash(es), "
              << metrics.server_recoveries << " recover(ies), "
              << metrics.job_evictions << " eviction(s), "
              << metrics.task_failures << " task failure(s), "
              << TablePrinter::FormatDouble(metrics.rolled_back_steps, 0)
              << " steps rolled back\n";
  }
  if (metrics.audit_violations > 0) {
    std::cerr << "invariant audit FAILED: " << sim.auditor().Summary() << "\n";
    if (sim.flight_recorder().enabled()) {
      std::cerr << "flight recorder tail (" << sim.flight_recorder().size()
                << " events):\n";
      sim.flight_recorder().Dump(std::cerr);
    }
    return 3;
  }
  return metrics.completed_jobs == metrics.total_jobs ? 0 : 1;
}

// Runs a scenario's policy grid (possibly restricted by --policy) and prints
// the comparison table. Returns the process exit code.
int RunScenario(ScenarioSpec scenario, int threads, const OutputFiles& out) {
  if (scenario.policies.size() == 1 && scenario.repeats == 1) {
    // One cell: run it fully instrumented so --trace-csv and friends work.
    return RunSingle(scenario.MakeSimConfig(scenario.policies[0]),
                     scenario.cluster.Build(), scenario.JobsForRepeat(0),
                     scenario.policies[0], out);
  }
  if (out.any()) {
    std::cerr << "--trace-csv/--timeline-csv/--metrics-out/--dump-workload-csv "
                 "need a single-cell scenario (one policy, repeats=1); this "
                 "one has "
              << scenario.policies.size() << " policy(ies) x "
              << scenario.repeats << " repeat(s)\n";
    return 2;
  }
  SweepOptions options;
  options.threads = threads;
  options.capture_run_reports = false;
  const SweepResult result = RunSweep({scenario}, options);
  std::cout << "scenario " << scenario.name << ": " << scenario.workload.num_jobs
            << " jobs, " << scenario.cluster.NumServers() << " server(s), "
            << scenario.repeats << " repeat(s)\n";
  TablePrinter table({"policy", "avg JCT (s)", "JCT stddev", "vs " +
                          result.cells[0].display_name,
                      "makespan (s)", "completed"});
  for (const SweepCellResult& cell : result.cells) {
    table.AddRow({cell.display_name,
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

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout << Usage();
    return 0;
  }

  std::string policy_flag = flags.GetString("policy", "");
  if (policy_flag.empty() && !flags.positional().empty() &&
      flags.positional()[0] == "list") {
    policy_flag = "list";  // accept `--policy list` (space-separated form)
  }
  if (policy_flag == "list") {
    return PrintPolicyList(flags.GetString("format", "table"));
  }
  const std::string scenario_path = flags.GetString("scenario", "");
  const int num_jobs = flags.GetInt32("jobs", 9);
  const int num_servers = flags.GetInt32("servers", 0);
  const std::string arrivals = flags.GetString("arrivals", "uniform");
  const int64_t steps_per_epoch = flags.GetInt("steps-per-epoch", 80);
  const double interval_s = flags.GetDouble("interval", 600.0);
  const bool engine_given = flags.Has("engine");
  const std::string engine_name = flags.GetString("engine", "interval");
  const bool seed_given = flags.Has("seed");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bool repeats_given = flags.Has("repeats");
  const int repeats = flags.GetInt32("repeats", 1);
  const double stragglers = flags.GetDouble("stragglers", 0.12);
  const std::string fault_plan_spec = flags.GetString("fault-plan", "");
  const double task_failure_prob = flags.GetDouble("task-failure-prob", 0.0);
  const double checkpoint_period = flags.GetDouble("checkpoint-period", 0.0);
  const bool audit = flags.GetBool("audit", true);
  const double background_share = flags.GetDouble("background-share", 0.0);
  const bool oracle = flags.GetBool("oracle", false);
  const int threads = flags.GetInt32("threads", 0);
  OutputFiles out;
  out.trace_csv = flags.GetString("trace-csv", "");
  out.timeline_csv = flags.GetString("timeline-csv", "");
  out.metrics_out = flags.GetString("metrics-out", "");
  out.metrics_format = flags.GetString("metrics-format", "prom");
  out.dump_workload_csv = flags.GetString("dump-workload-csv", "");
  const int flight_recorder_depth = flags.GetInt32("flight-recorder-depth", 256);
  const std::string workload_csv = flags.GetString("workload-csv", "");

  const std::vector<std::string> unknown = flags.UnconsumedKeys();
  if (!unknown.empty()) {
    std::cerr << "unknown flag(s):";
    for (const std::string& k : unknown) {
      std::cerr << " --" << k;
    }
    std::cerr << "\n\n" << Usage();
    return 2;
  }
  if (out.metrics_format != "prom" && out.metrics_format != "json") {
    std::cerr << "unknown --metrics-format '" << out.metrics_format
              << "' (expected prom|json)\n";
    return 2;
  }
  SimEngine engine = SimEngine::kInterval;
  if (!ParseSimEngine(engine_name, &engine)) {
    std::cerr << "unknown --engine '" << engine_name
              << "' (expected interval|events)\n";
    return 2;
  }
  if (std::string error;
      !policy_flag.empty() && FindPolicy(policy_flag, &error) == nullptr) {
    std::cerr << error << "\n";
    return 2;
  }
  ArrivalProcess arrival_process = ArrivalProcess::kUniformRandom;
  if (!ParseArrivals(arrivals, &arrival_process)) {
    std::cerr << "unknown --arrivals '" << arrivals
              << "' (expected uniform|poisson|trace)\n";
    return 2;
  }
  if (num_jobs < 1) {
    std::cerr << "--jobs must be >= 1 (got " << num_jobs << ")\n";
    return 2;
  }
  if (repeats < 1) {
    std::cerr << "--repeats must be >= 1 (got " << repeats << ")\n";
    return 2;
  }

  if (!scenario_path.empty()) {
    ScenarioSpec scenario;
    std::string error;
    if (!LoadScenarioFile(scenario_path, &scenario, &error)) {
      std::cerr << "bad scenario: " << error << "\n";
      return 2;
    }
    if (!policy_flag.empty()) {
      scenario.policies = {policy_flag};
    }
    if (seed_given) {
      scenario.seed = seed;
    }
    if (repeats_given) {
      scenario.repeats = repeats;
    }
    if (!workload_csv.empty()) {
      std::cerr << "--workload-csv cannot be combined with --scenario (the "
                   "scenario defines the workload)\n";
      return 2;
    }
    if (engine_given) {
      scenario.sim.engine = engine;
    }
    scenario.sim.obs.flight_recorder_depth = flight_recorder_depth;
    scenario.sim.obs.per_interval_series = out.metrics_format == "json";
    if (std::vector<std::string> errors; !scenario.Validate(&errors)) {
      return ReportInvalid(errors);
    }
    return RunScenario(std::move(scenario), threads, out);
  }

  const std::string policy_name = policy_flag.empty() ? "optimus" : policy_flag;
  ExperimentConfig config;
  {
    std::string error;
    OPTIMUS_CHECK(ApplySchedulerPolicy(policy_name, &config.sim, &error)) << error;
  }
  config.sim.interval_s = interval_s;
  config.sim.straggler.injection_prob_per_interval = stragglers;
  if (!fault_plan_spec.empty()) {
    std::string parse_error;
    if (!ParseFaultPlan(fault_plan_spec, &config.sim.fault.plan, &parse_error)) {
      std::cerr << "bad fault plan: " << parse_error << "\n";
      return 2;
    }
  }
  config.sim.fault.task_failure_prob = task_failure_prob;
  config.sim.fault.checkpoint_period_s = checkpoint_period;
  config.sim.audit = audit;
  config.sim.engine = engine;
  config.sim.background_share = background_share;
  config.sim.oracle_estimates = oracle;
  config.sim.threads = threads;
  config.threads = threads;
  config.workload.num_jobs = num_jobs;
  config.workload.arrivals = arrival_process;
  config.workload.interval_s = interval_s;
  config.workload.target_steps_per_epoch = steps_per_epoch;
  config.repeats = repeats;
  config.base_seed = seed;
  config.label = policy_name;
  config.sim.obs.flight_recorder_depth = flight_recorder_depth;
  // The JSON run report carries a per-interval time series; sample it.
  config.sim.obs.per_interval_series = out.metrics_format == "json";
  if (std::vector<std::string> errors; !config.sim.Validate(&errors)) {
    return ReportInvalid(errors);
  }

  auto cluster = [num_servers]() {
    return num_servers > 0
               ? BuildUniformCluster(num_servers, Resources(16, 80, 0, 1))
               : BuildTestbed();
  };

  if (repeats == 1 && (out.any() || !workload_csv.empty())) {
    // Single instrumented run.
    SimulatorConfig sim_config = config.sim;
    sim_config.seed = seed;
    std::vector<JobSpec> specs;
    if (!workload_csv.empty()) {
      std::ifstream in(workload_csv);
      if (!in.good()) {
        std::cerr << "cannot read workload trace " << workload_csv << "\n";
        return 2;
      }
      std::string parse_error;
      if (!ReadWorkloadCsv(in, TraceReplayOptions{}, &specs, &parse_error)) {
        std::cerr << "bad workload trace " << workload_csv << ": " << parse_error << "\n";
        return 2;
      }
    } else {
      Rng rng(seed ^ 0x5eedULL);
      specs = GenerateWorkload(config.workload, &rng);
    }
    return RunSingle(sim_config, cluster(), std::move(specs), policy_name, out);
  }

  ExperimentResult result = RunExperiment(config, cluster);
  TablePrinter table({"policy", "jobs", "avg JCT (s)", "JCT stddev", "makespan (s)",
                      "makespan stddev", "completed", "scaling overhead %"});
  table.AddRow({policy_name, std::to_string(num_jobs),
                TablePrinter::FormatDouble(result.avg_jct_mean, 0),
                TablePrinter::FormatDouble(result.avg_jct_stddev, 0),
                TablePrinter::FormatDouble(result.makespan_mean, 0),
                TablePrinter::FormatDouble(result.makespan_stddev, 0),
                TablePrinter::FormatDouble(result.completed_fraction * 100.0, 0) + "%",
                TablePrinter::FormatDouble(result.scaling_overhead_mean * 100.0, 2)});
  table.Print(std::cout);
  if (config.sim.fault.enabled()) {
    std::cout << "faults: " << TablePrinter::FormatDouble(result.job_evictions_mean, 1)
              << " eviction(s)/run, "
              << TablePrinter::FormatDouble(result.task_failures_mean, 1)
              << " task failure(s)/run\n";
  }
  if (result.audit_violations_total > 0) {
    std::cerr << "invariant audit FAILED in " << result.audit_violations_total
              << " check(s) across repeats\n";
    return 3;
  }
  return result.completed_fraction == 1.0 ? 0 : 1;
}
