#include "bench/bench_util.h"

#include <sys/wait.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/cluster/server.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/models/param_blocks.h"
#include "src/pserver/block_assignment.h"
#include "src/pserver/comm_model.h"
#include "src/sim/fault_injector.h"

namespace optimus {

bool UnknownFlags(const FlagParser& flags) {
  const std::vector<std::string> unknown = flags.UnconsumedKeys();
  for (const std::string& key : unknown) {
    std::cerr << "unknown flag --" << key << "\n";
  }
  return !unknown.empty();
}

void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& paper_expectation) {
  std::cout << "\n================================================================\n"
            << "EXPERIMENT " << id << ": " << title << "\n"
            << "Paper expectation: " << paper_expectation << "\n"
            << "================================================================\n";
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  if (!status.good()) {
    return 0.0;
  }
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") != 0) {
      continue;
    }
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

void SetPerfColumns(JsonObject* row, double wall_s, double sim_s) {
  row->Set("wall_s", wall_s);
  row->Set("sim_s", sim_s);
  row->Set("sim_s_per_wall_s", wall_s > 0.0 ? sim_s / wall_s : 0.0);
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return std::string(buf);
}

CellRun RunSim(const SimulatorConfig& config, std::vector<Server> servers,
               std::vector<JobSpec> specs,
               const std::function<void(const Simulator&)>& inspect) {
  Simulator sim(config, std::move(servers), std::move(specs));
  CellRun run;
  const auto start = std::chrono::steady_clock::now();
  sim.Run();
  const auto end = std::chrono::steady_clock::now();
  run.wall_s = std::chrono::duration<double>(end - start).count();
  run.sim_s = sim.now_s();
  if (sim.network() != nullptr) {
    run.net = sim.network()->stats();
  }
  run.fp = RunFingerprint::Of(sim);
  if (inspect) {
    inspect(sim);
  }
  return run;
}

void SetLightFaults(SimulatorConfig* config) {
  std::string error;
  OPTIMUS_CHECK(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;slow@2400:factor=0.8,duration=1800",
      &config->fault.plan, &error))
      << error;
  config->fault.task_failure_prob = 0.005;
  config->fault.checkpoint_period_s = 3600.0;
}

CellRun RunCell(const SimulatorConfig& config, const WorkloadConfig& workload,
                int servers, const std::function<void(const Simulator&)>& inspect) {
  Rng rng(config.seed ^ 0x5eedULL);
  return RunSim(config, BuildUniformCluster(servers, Resources(16, 80, 0, 1)),
                GenerateWorkload(workload, &rng), inspect);
}

void SetPerfRow(JsonObject* row, const std::string& cell, const CellRun& run) {
  row->Set("cell", cell);
  SetPerfColumns(row, run.wall_s, run.sim_s);
  row->Set("trace_digest", DigestHex(run.fp.trace_digest));
}

std::string CellLine(const JsonObject& row) {
  return "CELL " + row.ToCompactString() + "\n";
}

bool ParseCellLine(const std::string& line, JsonValue* row, std::string* why) {
  if (line.compare(0, 5, "CELL ") != 0) {
    *why = "not a CELL line: " + line;
    return false;
  }
  if (!ParseJson(line.substr(5), "CELL line", row, why)) {
    return false;
  }
  if (!row->is_object()) {
    *why = "CELL line holds no JSON object";
    return false;
  }
  return true;
}

JsonObject CellRow(const JsonValue& row) {
  JsonObject out;
  for (const std::string& key : row.Keys()) {
    const JsonValue& value = *row.Find(key);
    if (value.is_string()) {
      out.Set(key, value.AsString());
    } else if (value.is_bool()) {
      out.Set(key, value.AsBool());
    } else {
      out.Set(key, value.AsDouble());
    }
  }
  return out;
}

int PrintCellLine(JsonObject row) {
  row.Set("peak_rss_mib", PeakRssMib());
  std::cout << CellLine(row) << std::flush;
  return 0;
}

bool RunChildCells(const std::string& self_exe,
                   const std::vector<std::string>& cells,
                   const std::vector<std::string>& columns,
                   std::vector<JsonObject>* rows, std::string* why) {
  TablePrinter table(columns);
  for (const std::string& cell : cells) {
    std::cout << "  running cell " << cell << "...\n" << std::flush;
    FILE* pipe = popen((self_exe + " --cell=" + cell).c_str(), "r");
    // A row is a few hundred bytes; a longer CELL line arrives cut and
    // fails to parse.
    std::string cell_line;
    char line[4096];
    while (pipe != nullptr && std::fgets(line, sizeof(line), pipe) != nullptr) {
      if (std::strncmp(line, "CELL ", 5) == 0) {
        cell_line = line;
      }
    }
    const int status = pipe != nullptr ? pclose(pipe) : -1;
    JsonValue row;
    if (status != 0 || !ParseCellLine(cell_line, &row, why)) {
      *why = "cell " + cell + " failed (" +
             (WIFEXITED(status) ? "exit " + std::to_string(WEXITSTATUS(status))
                                : "status " + std::to_string(status)) +
             ")";
      return false;
    }
    std::vector<std::string> fields;
    for (const std::string& key : columns) {
      const JsonValue* value = row.Find(key);
      OPTIMUS_CHECK(value != nullptr) << "cell " << cell << " has no " << key;
      if (value->is_string()) {
        fields.push_back(value->AsString());
        continue;
      }
      const double number = value->AsDouble();
      fields.push_back(
          TablePrinter::FormatDouble(number, number == std::floor(number) ? 0 : 2));
    }
    table.AddRow(fields);
    rows->push_back(CellRow(row));
  }
  table.Print(std::cout);
  return true;
}

bool RunRepeats(const std::vector<std::string>& cells, int repeats,
                const std::function<CellRun(size_t row)>& run_row,
                std::vector<RepeatedRun>* rows, std::string* why) {
  rows->assign(cells.size(), RepeatedRun{});
  bool ok = true;
  for (int r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < cells.size(); ++i) {
      CellRun run = run_row(i);
      RepeatedRun& row = (*rows)[i];
      row.wall_s.push_back(run.wall_s);
      std::string field;
      if (r == 0) {
        row.run = std::move(run);
      } else if (ok && !run.fp.Matches(row.run.fp, &field)) {
        ok = false;
        *why = cells[i] + " repeat " + std::to_string(r) +
               " did not reproduce its run: " + field;
      }
    }
  }
  return ok;
}

ScenarioSpec TestbedScenario() {
  ScenarioSpec scenario;
  scenario.name = "testbed";
  scenario.repeats = 5;
  scenario.policies = {"optimus", "drf", "tetris"};
  scenario.workload.sizes.target_steps_per_epoch = 80;
  scenario.sim.straggler.injection_prob_per_interval = 0.12;
  return scenario;
}

std::vector<SweepCellResult> RunPolicyComparison(const ScenarioSpec& scenario,
                                                 const std::string& caption) {
  std::vector<SweepCellResult> cells = RunSweep({scenario}).cells;
  PrintBanner(std::cout, caption);
  TablePrinter table({"scheduler", "avg JCT (s)", "JCT stddev", "JCT (norm)",
                      "makespan (s)", "makespan stddev", "makespan (norm)",
                      "scaling overhead %"});
  for (const SweepCellResult& c : cells) {
    table.AddRow({c.display_name, TablePrinter::FormatDouble(c.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(c.avg_jct_stddev, 0),
                  TablePrinter::FormatDouble(c.jct_vs_baseline, 2),
                  TablePrinter::FormatDouble(c.makespan_mean, 0),
                  TablePrinter::FormatDouble(c.makespan_stddev, 0),
                  TablePrinter::FormatDouble(c.makespan_vs_baseline, 2),
                  TablePrinter::FormatDouble(c.scaling_overhead_mean * 100.0, 2)});
  }
  table.Print(std::cout);
  return cells;
}

namespace {

// The context of one zoo profile's oracle estimate.
struct ZooOracle {
  const ModelSpec* model = nullptr;
  double steps_per_epoch = 1.0;
  ParamBlockSizes blocks;

  static double Speed(const void* ctx, int p, int w) {
    const ZooOracle& oracle = *static_cast<const ZooOracle*>(ctx);
    StepTimeInputs in;
    in.model = oracle.model;
    in.mode = TrainingMode::kSync;
    in.num_ps = p;
    in.num_workers = w;
    in.global_batch = oracle.model->default_sync_batch;
    in.load = ComputeLoadMetrics(PaaAssigner().Assign(oracle.blocks, p));
    in.load_valid = true;
    return TrainingSpeed(in, CommConfig{}) / oracle.steps_per_epoch;
  }
};

}  // namespace

SpeedEstimate ZooOracleSpeed(size_t zoo_index) {
  static const std::vector<ZooOracle> oracles = [] {
    std::vector<ZooOracle> out;
    for (const ModelSpec& model : GetModelZoo()) {
      out.push_back({&model,
                     static_cast<double>(model.StepsPerEpoch(model.default_sync_batch)),
                     GenerateParamBlocks(model)});
    }
    return out;
  }();
  return SpeedEstimate::Custom(&ZooOracle::Speed, &oracles.at(zoo_index));
}

}  // namespace optimus
