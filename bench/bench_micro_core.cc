// Micro-benchmarks (google-benchmark) for the scheduler's hot paths: NNLS
// solving, convergence-curve fitting and its outlier pass, speed-model
// fitting, a marginal-gain allocation round, a placement round, and a short
// thread-pool fan-out.
// Afterwards it writes the `micro_core` section (allocation round, cached vs
// uncached) into --json=PATH (default BENCH_sched.json).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/threadpool.h"
#include "src/models/loss_curve.h"
#include "src/models/model_zoo.h"
#include "src/perfmodel/convergence_model.h"
#include "src/perfmodel/preprocess.h"
#include "src/perfmodel/speed_model.h"
#include "src/pserver/block_assignment.h"
#include "src/pserver/comm_model.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sched/speed_surface.h"
#include "src/solver/nnls.h"

namespace optimus {
namespace {

void BM_NnlsSolve(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a(rows, 5);
  Vector truth = {1.0, 2.8, 4.9, 0.0, 0.02};
  Vector b(rows, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      a(r, c) = rng.Uniform(0.1, 2.0);
      b[r] += a(r, c) * truth[c];
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveNnls(a, b));
  }
}
BENCHMARK(BM_NnlsSolve)->Arg(32)->Arg(256)->Arg(2048);

// One refinement pass of the Eqn-1 refit's solves: 25 right-hand sides, one
// per beta2 grid point, against the Gram of 25 noisy loss samples (A's
// columns are the step and a column of ones; row i's target is
// 1 / (loss_i - beta2)). Lane k's A^T b is (u[k], v[k]).
struct RefitPassLanes {
  static constexpr int kLanes = 25;
  double ata[4] = {};
  double u[kLanes] = {};
  double v[kLanes] = {};
};

RefitPassLanes MakeRefitPassLanes() {
  const ModelSpec& spec = FindModel("Seq2Seq");
  const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(spec.loss, spe);
  Rng rng(4);
  constexpr int kPoints = 25;
  double steps[kPoints];
  double losses[kPoints];
  RefitPassLanes lanes;
  double min_loss = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kPoints; ++i) {
    steps[i] = static_cast<double>((i + 1) * spe / 10);
    losses[i] = curve.SampleLossAtStep((i + 1) * spe / 10, &rng);
    min_loss = std::min(min_loss, losses[i]);
    lanes.ata[0] += steps[i] * steps[i];
    lanes.ata[1] += steps[i];
    lanes.ata[3] += 1.0;
  }
  lanes.ata[2] = lanes.ata[1];
  for (int k = 0; k < RefitPassLanes::kLanes; ++k) {
    const double beta2 = min_loss * 0.999 * k / (RefitPassLanes::kLanes - 1);
    for (int i = 0; i < kPoints; ++i) {
      const double y = 1.0 / (losses[i] - beta2);
      lanes.u[k] += steps[i] * y;
      lanes.v[k] += y;
    }
  }
  return lanes;
}

// The pass's lanes one Solve at a time on one reused solver.
void BM_NnlsGramSolveTwoUnknowns(benchmark::State& state) {
  const RefitPassLanes lanes = MakeRefitPassLanes();
  for (auto _ : state) {
    NnlsGramSolver solver(lanes.ata, 2);
    for (int k = 0; k < RefitPassLanes::kLanes; ++k) {
      const double atb[2] = {lanes.u[k], lanes.v[k]};
      double x[2];
      benchmark::DoNotOptimize(solver.Solve(atb, x));
      benchmark::DoNotOptimize(x);
    }
  }
  state.SetItemsProcessed(state.iterations() * RefitPassLanes::kLanes);
}
BENCHMARK(BM_NnlsGramSolveTwoUnknowns);

// The same lanes in one SolveLanes call, as ConvergenceModel::Fit solves a
// pass.
void BM_NnlsGramSolveLanes(benchmark::State& state) {
  const RefitPassLanes lanes = MakeRefitPassLanes();
  double x0[RefitPassLanes::kLanes];
  double x1[RefitPassLanes::kLanes];
  for (auto _ : state) {
    NnlsGramSolver solver(lanes.ata, 2);
    benchmark::DoNotOptimize(
        solver.SolveLanes(lanes.u, lanes.v, RefitPassLanes::kLanes, x0, x1));
    benchmark::DoNotOptimize(x0);
    benchmark::DoNotOptimize(x1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * RefitPassLanes::kLanes);
}
BENCHMARK(BM_NnlsGramSolveLanes);

// Times one refit: each iteration restores a model that was fitted on
// `points` samples and has one new sample since, so Fit() re-runs the whole
// warm-started beta2 sweep instead of hitting the dirty-flag cache. Args are
// (points, max_fit_points); at 25 points, an events-engine refit's size,
// the lane solves cost more than the point sweeps.
void BM_ConvergenceFit(benchmark::State& state) {
  const ModelSpec& spec = FindModel("Seq2Seq");
  const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(spec.loss, spe);
  Rng rng(2);
  ConvergenceModelOptions options;
  options.max_fit_points = static_cast<int>(state.range(1));
  ConvergenceModel fitted(options);
  const int64_t points = state.range(0);
  for (int64_t i = 1; i <= points; ++i) {
    const int64_t step = i * spe / 10;
    fitted.AddSample(static_cast<double>(step), curve.SampleLossAtStep(step, &rng));
  }
  fitted.Fit();
  const int64_t next = (points + 1) * spe / 10;
  fitted.AddSample(static_cast<double>(next), curve.SampleLossAtStep(next, &rng));
  ConvergenceModel model = fitted;
  for (auto _ : state) {
    state.PauseTiming();
    model = fitted;
    state.ResumeTiming();
    benchmark::DoNotOptimize(model.Fit());
  }
}
BENCHMARK(BM_ConvergenceFit)
    ->Args({25, 512})
    ->Args({100, 512})
    ->Args({1000, 512})
    ->Args({2200, 16384})
    ->Args({16384, 16384});

// Times the refit's outlier pass alone on `points` noisy loss samples, the
// band found with the model's default window, into a reused buffer.
void BM_RemoveOutliers(benchmark::State& state) {
  const ModelSpec& spec = FindModel("Seq2Seq");
  const int64_t spe = spec.StepsPerEpoch(spec.default_sync_batch);
  LossCurve curve(spec.loss, spe);
  Rng rng(3);
  std::vector<LossSample> samples;
  for (int64_t i = 1; i <= state.range(0); ++i) {
    const int64_t step = i * spe / 10;
    samples.push_back({static_cast<double>(step), curve.SampleLossAtStep(step, &rng)});
  }
  const int window = ConvergenceModel::kOutlierWindow;
  std::vector<LossSample> out;
  for (auto _ : state) {
    RemoveOutliers(samples, window, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RemoveOutliers)->Arg(2200)->Arg(16384);

void BM_SpeedModelFit(benchmark::State& state) {
  const ModelSpec& spec = FindModel("ResNet-50");
  SpeedModel model(TrainingMode::kSync, spec.default_sync_batch);
  for (int p = 1; p <= 16; ++p) {
    for (int w = 1; w <= 16; ++w) {
      StepTimeInputs in;
      in.model = &spec;
      in.mode = TrainingMode::kSync;
      in.num_ps = p;
      in.num_workers = w;
      model.AddSample(p, w, TrainingSpeed(in, CommConfig{}));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Fit());
  }
}
BENCHMARK(BM_SpeedModelFit);

// A concave speed whose knee sits at `*ctx` workers.
double ConcaveSpeed(const void* ctx, int p, int w) {
  const double a = *static_cast<const double*>(ctx);
  return 1.0 / (a / w + 1.0 + 0.8 * w / p + 0.05 * w + 0.05 * p);
}

// Storage for the speed contexts, alive for the whole run.
const double& KeepDouble(double v) {
  static std::deque<double> kept;
  return kept.emplace_back(v);
}

std::vector<SchedJob> MakeJobs(int n) {
  std::vector<SchedJob> jobs;
  for (int i = 0; i < n; ++i) {
    SchedJob job;
    job.job_id = i;
    job.worker_demand = Resources(5, 10, 0, 0.2);
    job.ps_demand = Resources(5, 10, 0, 0.2);
    job.remaining_epochs = 10.0 + (i % 40);
    // One context per job: no two jobs share a surface.
    job.speed = SpeedEstimate::Custom(&ConcaveSpeed, &KeepDouble(4.0 + (i % 7)));
    jobs.push_back(job);
  }
  return jobs;
}

void BM_OptimusAllocation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<SchedJob> jobs = MakeJobs(n);
  const Resources capacity(16.0 * n, 80.0 * n, 0, n);
  OptimusAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.Allocate(jobs, capacity));
  }
}
BENCHMARK(BM_OptimusAllocation)->Arg(10)->Arg(100)->Arg(1000);

// Jobs whose estimates run the full Eqn-2 step-time model with the §5.3
// block-assignment load recomputed at the probed PS count (what a
// full-fidelity oracle probe costs), cycling the Table-1 zoo so jobs of one
// profile share a surface.
std::vector<SchedJob> MakeOracleJobs(int n) {
  const size_t zoo_size = GetModelZoo().size();
  std::vector<SchedJob> jobs = MakeJobs(n);
  for (int i = 0; i < n; ++i) {
    jobs[i].speed = ZooOracleSpeed(static_cast<size_t>(i) % zoo_size);
  }
  return jobs;
}

// One allocation round over oracle-model jobs, with and without the memoized
// speed surface. The gap is the per-round saving of the fast path.
void BM_OptimusAllocationRound(benchmark::State& state, bool cached) {
  const int n = static_cast<int>(state.range(0));
  std::vector<SchedJob> jobs = MakeOracleJobs(n);
  const Resources capacity(16.0 * n, 80.0 * n, 0, n);
  OptimusAllocator allocator;
  for (auto _ : state) {
    SpeedSurfaceSet surfaces(cached);
    benchmark::DoNotOptimize(allocator.Allocate(jobs, capacity, &surfaces));
  }
}

void BM_OptimusAllocationCached(benchmark::State& state) {
  BM_OptimusAllocationRound(state, /*cached=*/true);
}
BENCHMARK(BM_OptimusAllocationCached)->Arg(100)->Arg(1000);

void BM_OptimusAllocationUncached(benchmark::State& state) {
  BM_OptimusAllocationRound(state, /*cached=*/false);
}
BENCHMARK(BM_OptimusAllocationUncached)->Arg(100)->Arg(1000);

void BM_SpeedSurfaceProbe(benchmark::State& state) {
  std::vector<SchedJob> jobs = MakeOracleJobs(1);
  SpeedSurface surface(jobs[0].speed, jobs[0].max_ps, jobs[0].max_workers);
  // Warm the whole grid so the loop measures pure cache hits.
  for (int p = 1; p <= jobs[0].max_ps; ++p) {
    for (int w = 1; w <= jobs[0].max_workers; ++w) {
      surface.Speed(p, w);
    }
  }
  int p = 1;
  int w = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(surface.Speed(p, w));
    p = p % 16 + 1;
    w = (w + 2) % 16 + 1;
  }
}
BENCHMARK(BM_SpeedSurfaceProbe);

void BM_OptimusPlacement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<SchedJob> jobs = MakeJobs(n);
  std::vector<PlacementJobInput> inputs;
  for (const SchedJob& j : jobs) {
    inputs.push_back({j.job_id, {2, 3}, j.worker_demand, j.ps_demand});
  }
  for (auto _ : state) {
    std::vector<Server> servers =
        BuildUniformCluster(2 * n, Resources(16, 80, 0, 1));
    benchmark::DoNotOptimize(
        PlaceJobs(PlacementPolicy::kOptimusPack, inputs, &servers));
  }
}
BENCHMARK(BM_OptimusPlacement)->Arg(10)->Arg(100)->Arg(1000);

// One PAA assignment of ResNet-50's blocks to 10 PSes with the block order
// sorted once outside the loop, as the simulator's per-model table does.
void BM_PaaAssignment(benchmark::State& state) {
  const ParamBlockSizes blocks = GenerateParamBlocks(FindModel("ResNet-50"));
  const std::vector<int> order = PaaBlockOrder(blocks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaaAssigner().Assign(blocks, order, 10));
  }
}
BENCHMARK(BM_PaaAssignment);

// Busy-waits for `d` on the calling thread.
void SpinFor(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// A short fan-out after an idle gap, the shape of the events engine's model
// refits: ThreadPool(4) runs 256 items of about 2 us each after the caller
// has run 1 ms of serial work (untimed), long enough for the workers to park.
// Reports the runners that ran items per call and the caller's share of the
// items.
void BM_ParallelForShortFanOut(benchmark::State& state) {
  constexpr int64_t kItems = 256;
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(kItems);
  double runners = 0.0;
  double caller_items = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    SpinFor(std::chrono::milliseconds(1));
    state.ResumeTiming();
    pool.ParallelFor(kItems, [&ran_on](int64_t i) {
      SpinFor(std::chrono::microseconds(2));
      ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
    });
    std::vector<std::thread::id> distinct = ran_on;
    std::sort(distinct.begin(), distinct.end());
    runners += static_cast<double>(
        std::unique(distinct.begin(), distinct.end()) - distinct.begin());
    caller_items += static_cast<double>(std::count(ran_on.begin(), ran_on.end(), caller));
  }
  const double calls = static_cast<double>(state.iterations());
  state.counters["runners_per_call"] = runners / calls;
  state.counters["caller_share"] = caller_items / (calls * kItems);
}
BENCHMARK(BM_ParallelForShortFanOut)->UseRealTime();

void BM_StepTimeModel(benchmark::State& state) {
  const ModelSpec& spec = FindModel("ResNet-50");
  StepTimeInputs in;
  in.model = &spec;
  in.mode = TrainingMode::kSync;
  in.num_ps = 8;
  in.num_workers = 12;
  const CommConfig comm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeStepTime(in, comm));
  }
}
BENCHMARK(BM_StepTimeModel);

// One timed allocation round outside the google-benchmark loop, for the
// machine-readable snapshot.
JsonObject MeasureAllocationRound(int n, bool cached) {
  std::vector<SchedJob> jobs = MakeOracleJobs(n);
  const Resources capacity(16.0 * n, 80.0 * n, 0, n);
  SpeedSurfaceSet surfaces(cached);
  const auto start = std::chrono::steady_clock::now();
  OptimusAllocator().Allocate(jobs, capacity, &surfaces);
  const auto end = std::chrono::steady_clock::now();

  JsonObject round;
  round.Set("cached", cached);
  round.Set("jobs", n);
  round.Set("alloc_s", std::chrono::duration<double>(end - start).count());
  round.Set("probes", surfaces.probes());
  round.Set("evals", surfaces.evals());
  round.Set("hit_rate", surfaces.hit_rate());
  return round;
}

void WriteMicroJson(const std::string& path) {
  const int n = 500;
  const JsonObject uncached = MeasureAllocationRound(n, false);
  const JsonObject cached = MeasureAllocationRound(n, true);
  JsonObject section;
  section.Set("allocation_uncached", uncached);
  section.Set("allocation_cached", cached);
  if (WriteBenchJsonSection(path, "micro_core", section)) {
    std::cout << "wrote section micro_core to " << path << "\n";
  }
}

}  // namespace
}  // namespace optimus

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // google-benchmark strips its own --benchmark_* flags; the rest are ours.
  optimus::FlagParser flags(argc, argv);
  const std::string json_path = flags.GetString("json", "BENCH_sched.json");
  if (!flags.positional().empty()) {
    std::cerr << "unexpected argument " << flags.positional().front() << "\n";
    return 1;
  }
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  optimus::WriteMicroJson(json_path);
  return 0;
}
