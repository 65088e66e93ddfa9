// Discrete-event kernel vs the interval engine: wall time to advance the
// same simulation over the same horizon, at cluster scale.
//
// Two arrival regimes at 1,000 jobs on 16,000 nodes, plus a 10,000-job row:
//
//   burst  — every job arrives inside the first five intervals: hundreds of
//            jobs run concurrently, so per-interval advance work and
//            per-round event work are both large and the scheduling rounds —
//            identical in both engines — are a sizable shared floor.
//   steady — arrivals spread across the horizon, and jobs train at realistic
//            dataset scale (the generator's default caps steps-per-epoch at
//            ~20 so toy experiments finish in simulated minutes; the headline
//            row raises the cap to 100, putting job lifetimes at a few
//            simulated hours, in line with the paper's workloads). ~100 jobs
//            run at once; the interval engine polls and refits every running
//            job every interval — a cost that grows quadratically with job
//            lifetime, because each refit rescans the whole accumulated loss
//            history — while the event engine touches each job only at its
//            own epoch events. This is the regime the event kernel targets
//            (and the headline speedup row).
//
// Both engines run the identical workload from the identical seed, one
// thread each; every row runs twice and the repeat must reproduce its
// fingerprint bitwise (RunFingerprint, src/sim/run_fingerprint.h; the thread
// contract is tier-1's determinism sweep, EventKernelTest and
// ParallelDeterminismTest). Interval vs events
// is compared under the documented tolerance
// (docs/ALGORITHMS.md section 16): completed-job counts within
// max(3, 1% of submissions), average JCT within 15% — the engines consume
// per-job RNG streams at different cadences, so trajectories differ in the
// noise term but not in substance, and at a hard horizon cutoff a small
// fraction of near-boundary jobs can land on opposite sides of it.
// Any violation exits 3: speed that changes the answer is a bug.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace {

using namespace optimus;

struct RegimeSpec {
  std::string name;
  int jobs = 1000;
  int nodes = 16000;
  int horizon_intervals = 100;
  // Uniform arrivals land in [0, arrival_intervals * interval_s].
  int arrival_intervals = 5;
  // Dataset-downscaling cap handed to the workload generator (its default of
  // 20 keeps toy runs short; the headline regime uses 100 for realistic
  // multi-hour training jobs).
  int64_t target_steps_per_epoch = 20;
  bool headline = false;
};

constexpr uint64_t kSeed = 7;
constexpr double kIntervalS = 600.0;
// Cross-engine tolerances (documented in docs/ALGORITHMS.md section 16).
// The engines consume per-job RNG streams at different cadences, so noise
// terms differ; at a hard horizon cutoff a handful of near-boundary jobs can
// land on opposite sides of it.
constexpr double kJctTolerance = 0.15;
// Absolute floor; the effective tolerance is max(this, 1% of submissions) —
// longer-lived jobs put more of the population near the horizon boundary.
constexpr int kCompletedTolerance = 3;

int CompletedTolerance(int total_jobs) {
  return std::max(kCompletedTolerance, total_jobs / 100);
}

SimulatorConfig RegimeConfig(const RegimeSpec& regime, SimEngine engine) {
  SimulatorConfig sim;
  sim.seed = kSeed;
  sim.engine = engine;
  sim.audit = true;
  sim.max_sim_time_s = regime.horizon_intervals * kIntervalS;
  // A light fault load: scripted crash + slowdown, stochastic container
  // deaths, periodic checkpoints — both fault paths exercised.
  std::string error;
  OPTIMUS_CHECK(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;slow@2400:factor=0.8,duration=1800",
      &sim.fault.plan, &error))
      << error;
  sim.fault.task_failure_prob = 0.005;
  sim.fault.checkpoint_period_s = 3600.0;
  // Dense loss feed for the interval engine (one sample every ~6 simulated
  // seconds, full-fidelity fits); the event engine observes the same curves
  // at its own cadence (conv_samples_per_epoch, default 2).
  sim.conv_samples_per_interval = 300;
  sim.conv_fit_points = 16384;
  return sim;
}

// Best-of-two timing: wall clock on a shared host is noisy, the simulation
// is not — the repeat must reproduce the run's fingerprint bitwise, trace
// digest included. Returns false, naming the field, when it does not.
bool RunRow(const RegimeSpec& regime, SimEngine engine, CellRun* best,
            std::string* why) {
  const SimulatorConfig config = RegimeConfig(regime, engine);
  WorkloadConfig workload;
  workload.num_jobs = regime.jobs;
  workload.arrival_window_s = regime.arrival_intervals * kIntervalS;
  workload.target_steps_per_epoch = regime.target_steps_per_epoch;
  auto run_once = [&] {
    Rng workload_rng(config.seed ^ 0x5eedULL);
    return RunSim(config,
                  BuildUniformCluster(regime.nodes, Resources(16, 80, 0, 1)),
                  GenerateWorkload(workload, &workload_rng));
  };
  *best = run_once();
  CellRun again = run_once();
  if (!again.fp.Matches(best->fp, why)) {
    return false;
  }
  if (again.wall_s < best->wall_s) {
    *best = std::move(again);
  }
  return true;
}

// Cross-engine parity under the documented tolerance.
bool EnginesAgree(const RunMetrics& interval, const RunMetrics& events,
                  int total_jobs, std::string* why) {
  if (std::abs(interval.completed_jobs - events.completed_jobs) >
      CompletedTolerance(total_jobs)) {
    *why = "completed_jobs: interval=" + std::to_string(interval.completed_jobs) +
           " events=" + std::to_string(events.completed_jobs);
    return false;
  }
  if (interval.avg_jct_s > 0.0) {
    const double rel =
        std::abs(events.avg_jct_s - interval.avg_jct_s) / interval.avg_jct_s;
    if (rel > kJctTolerance) {
      *why = "avg_jct_s: interval=" + std::to_string(interval.avg_jct_s) +
             " events=" + std::to_string(events.avg_jct_s) +
             " (rel " + std::to_string(rel) + " > " +
             std::to_string(kJctTolerance) + ")";
      return false;
    }
  }
  if (interval.audit_violations != 0 || events.audit_violations != 0) {
    *why = "audit violations";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // --smoke: a seconds-scale subset for tools/check.sh and CI.
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_events.json");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }

  PrintExperimentHeader(
      "EXT: discrete-event kernel",
      "Event-driven advancement (lazy per-job epochs, analytic completion "
      "times) vs fixed-interval polling over the same horizon",
      "The event engine advances the steady-state 1k-job/16k-node simulation "
      ">= 10x faster, with interval parity within the documented tolerance");

  std::vector<RegimeSpec> regimes;
  if (smoke) {
    regimes.push_back({"burst", 60, 200, 8, 2, 20, false});
    regimes.push_back({"steady", 60, 200, 10, 8, 20, true});
  } else {
    regimes.push_back({"burst", 1000, 16000, 100, 5, 20, false});
    regimes.push_back({"steady", 1000, 16000, 120, 100, 100, true});
    regimes.push_back({"steady-10k", 10000, 16000, 120, 100, 20, false});
  }

  TablePrinter table({"regime", "configuration", "wall (s)", "sim s / wall s",
                      "events"});
  std::vector<JsonObject> json_rows;
  bool ok = true;
  std::string divergence;
  double headline_speedup = 0.0;
  std::vector<JsonObject> regime_sections;
  for (const RegimeSpec& regime : regimes) {
    std::vector<CellRun> results;
    for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
      const std::string label = std::string(SimEngineName(engine)) + " @ 1t";
      CellRun r;
      std::string why;
      if (!RunRow(regime, engine, &r, &why)) {
        ok = false;
        divergence = regime.name + "/" + label +
                     " not deterministic across repeats: " + why;
      }
      table.AddRow({regime.name, label, TablePrinter::FormatDouble(r.wall_s, 3),
                    TablePrinter::FormatDouble(
                        r.wall_s > 0.0 ? r.sim_s / r.wall_s : 0.0, 0),
                    std::to_string(r.fp.metrics.events_processed)});
      JsonObject jr;
      jr.Set("regime", regime.name);
      jr.Set("label", label);
      jr.Set("engine", SimEngineName(engine));
      jr.Set("threads", 1);
      SetPerfColumns(&jr, r.wall_s, r.sim_s);
      jr.Set("events_processed", r.fp.metrics.events_processed);
      jr.Set("completed_jobs", r.fp.metrics.completed_jobs);
      jr.Set("avg_jct_s", r.fp.metrics.avg_jct_s);
      jr.Set("audit_checks", r.fp.metrics.audit_checks);
      jr.Set("audit_violations", r.fp.metrics.audit_violations);
      json_rows.push_back(jr);
      results.push_back(std::move(r));
    }

    // Cross-engine parity under the documented tolerance.
    std::string why;
    if (!EnginesAgree(results[0].fp.metrics, results[1].fp.metrics, regime.jobs,
                      &why)) {
      ok = false;
      divergence = regime.name + " interval vs events: " + why;
    }

    const double interval_wall = results[0].wall_s;
    const double events_wall = results[1].wall_s;
    const double speedup =
        events_wall > 0.0 ? interval_wall / events_wall : 0.0;
    if (regime.headline) {
      headline_speedup = speedup;
    }
    JsonObject rs;
    rs.Set("regime", regime.name);
    rs.Set("jobs", regime.jobs);
    rs.Set("nodes", regime.nodes);
    rs.Set("horizon_intervals", regime.horizon_intervals);
    rs.Set("arrival_intervals", regime.arrival_intervals);
    rs.Set("target_steps_per_epoch", regime.target_steps_per_epoch);
    rs.Set("interval_wall_s", interval_wall);
    rs.Set("events_wall_s_1t", events_wall);
    rs.Set("speedup_events_1t", speedup);
    rs.Set("headline", regime.headline);
    regime_sections.push_back(rs);
  }
  table.Print(std::cout);

  std::cout << "\nheadline (steady, events @ 1t vs interval @ 1t): "
            << TablePrinter::FormatDouble(headline_speedup, 2)
            << "x (target >= 10x)\n";
  if (ok) {
    std::cout << "every row reproduced bitwise on repeat; engines agree "
                 "within tolerance\n";
  } else {
    std::cerr << "METRICS DIVERGED: " << divergence << "\n";
  }

  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("interval_s", kIntervalS);
  section.Set("seed", static_cast<int64_t>(kSeed));
  section.Set("jct_tolerance", kJctTolerance);
  section.Set("completed_tolerance_floor", kCompletedTolerance);
  section.Set("completed_tolerance_frac", 0.01);
  section.Set("headline_speedup", headline_speedup);
  section.Set("metrics_ok", ok);
  section.Set("regimes", regime_sections);
  section.Set("rows", json_rows);
  if (WriteBenchJsonSection(json_path, "event_kernel", section)) {
    std::cout << "wrote section event_kernel to " << json_path << "\n";
  }

  return ok ? 0 : 3;
}
