#include "bench/bench_util.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/cluster/server.h"
#include "src/models/param_blocks.h"
#include "src/pserver/block_assignment.h"
#include "src/pserver/comm_model.h"

namespace optimus {

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
               std::vector<JobSpec> specs) {
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
  return run;
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
