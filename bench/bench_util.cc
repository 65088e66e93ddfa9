#include "bench/bench_util.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/cluster/server.h"
#include "src/common/logging.h"
#include "src/models/param_blocks.h"
#include "src/pserver/block_assignment.h"
#include "src/pserver/comm_model.h"
#include "src/sched/scheduler_registry.h"

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

std::vector<ExperimentResult> RunPolicyComparison(
    const ExperimentConfig& base, const std::vector<std::string>& policies,
    const std::string& caption) {
  OPTIMUS_CHECK(!policies.empty());
  std::vector<ExperimentResult> results;
  for (const std::string& policy : policies) {
    ExperimentConfig config = base;
    std::string error;
    OPTIMUS_CHECK(ApplySchedulerPolicy(policy, &config.sim, &error)) << error;
    config.label = FindPolicy(policy)->display_name;
    results.push_back(RunExperiment(config, [] { return BuildTestbed(); }));
  }

  const ExperimentResult& baseline = results[0];
  PrintBanner(std::cout, caption);
  TablePrinter table({"scheduler", "avg JCT (s)", "JCT stddev", "JCT (norm)",
                      "makespan (s)", "makespan stddev", "makespan (norm)",
                      "scaling overhead %"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.label, TablePrinter::FormatDouble(r.avg_jct_mean, 0),
                  TablePrinter::FormatDouble(r.avg_jct_stddev, 0),
                  TablePrinter::FormatDouble(
                      NormalizedTo(r.avg_jct_mean, baseline.avg_jct_mean), 2),
                  TablePrinter::FormatDouble(r.makespan_mean, 0),
                  TablePrinter::FormatDouble(r.makespan_stddev, 0),
                  TablePrinter::FormatDouble(
                      NormalizedTo(r.makespan_mean, baseline.makespan_mean), 2),
                  TablePrinter::FormatDouble(r.scaling_overhead_mean * 100.0, 2)});
  }
  table.Print(std::cout);
  return results;
}

std::vector<ExperimentResult> RunSchedulerComparison(const ExperimentConfig& base,
                                                     const std::string& caption) {
  return RunPolicyComparison(base, {"optimus", "drf", "tetris"}, caption);
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
