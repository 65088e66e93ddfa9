// Tests for the scenario engine: the JSON reader, the workload generator
// suite, cluster topology specs, scenario parsing/validation, the
// policy table, and the sweep engine's thread-count determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "src/cluster/data_serving.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/fault_injector.h"
#include "src/sim/run_fingerprint.h"
#include "src/sim/simulator.h"
#include "src/workload/json.h"
#include "src/workload/scenario.h"
#include "src/workload/sweep.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalarsArraysObjects) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"a": 1.5, "b": "x", "c": [true, null, -3], "d": {"e": 2}})", "t", &v,
      &error))
      << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Keys(), (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_DOUBLE_EQ(v.Find("a")->AsDouble(), 1.5);
  EXPECT_EQ(v.Find("b")->AsString(), "x");
  const auto& arr = v.Find("c")->AsArray();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].AsBool());
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].AsInt(), -3);
  EXPECT_EQ(v.Find("d")->Find("e")->AsInt(), 2);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, ReportsPositionOnError) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{\n  \"a\": [1, 2,]\n}", "f.json", &v, &error));
  EXPECT_NE(error.find("f.json:2"), std::string::npos) << error;
}

TEST(JsonTest, RejectsDuplicateKeysAndTrailingGarbage) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(R"({"seed": 1, "seed": 2})", "t", &v, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_FALSE(ParseJson(R"({"a": 1} extra)", "t", &v, &error));
}

TEST(JsonTest, DecodesEscapes) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"s": "a\n\t\"A"})", "t", &v, &error)) << error;
  EXPECT_EQ(v.Find("s")->AsString(), "a\n\t\"A");
}

// ---------------------------------------------------------------------------
// Workload generators
// ---------------------------------------------------------------------------

TEST(GeneratorsTest, JobsAreSortedDeterministicAndSeedSensitive) {
  WorkloadSpec spec;
  spec.num_jobs = 24;
  spec.arrivals.kind = ArrivalSpec::Kind::kPoisson;
  Rng rng_a(123);
  Rng rng_b(123);
  Rng rng_c(124);
  const std::vector<JobSpec> a = GenerateJobs(spec, &rng_a);
  const std::vector<JobSpec> b = GenerateJobs(spec, &rng_b);
  const std::vector<JobSpec> c = GenerateJobs(spec, &rng_c);
  ASSERT_EQ(a.size(), 24u);
  bool any_difference = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_time_s, b[i].arrival_time_s);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].convergence_delta, b[i].convergence_delta);
    if (i > 0) {
      EXPECT_LE(a[i - 1].arrival_time_s, a[i].arrival_time_s);
    }
    any_difference |= a[i].arrival_time_s != c[i].arrival_time_s;
  }
  EXPECT_TRUE(any_difference) << "different seeds must give different arrivals";
}

TEST(GeneratorsTest, ArrivalKindsProduceNondecreasingTimes) {
  for (const ArrivalSpec::Kind kind :
       {ArrivalSpec::Kind::kUniform, ArrivalSpec::Kind::kPoisson,
        ArrivalSpec::Kind::kBursty, ArrivalSpec::Kind::kDiurnal}) {
    WorkloadSpec spec;
    spec.num_jobs = 40;
    spec.arrivals.kind = kind;
    Rng rng(7);
    const std::vector<JobSpec> jobs = GenerateJobs(spec, &rng);
    for (size_t i = 1; i < jobs.size(); ++i) {
      EXPECT_LE(jobs[i - 1].arrival_time_s, jobs[i].arrival_time_s)
          << ArrivalKindName(kind);
    }
  }
}

TEST(GeneratorsTest, ParetoSizesAreCappedAndSpread) {
  WorkloadSpec spec;
  spec.num_jobs = 64;
  spec.sizes.kind = JobSizeSpec::Kind::kPareto;
  spec.sizes.pareto_alpha = 1.1;
  spec.sizes.pareto_cap = 4.0;
  spec.sizes.target_steps_per_epoch = 0;  // multiplier only
  Rng rng(9);
  const std::vector<JobSpec> jobs = GenerateJobs(spec, &rng);
  std::set<double> scales;
  for (const JobSpec& job : jobs) {
    EXPECT_GE(job.dataset_scale, 1.0);
    EXPECT_LE(job.dataset_scale, 4.0 + 1e-12);
    scales.insert(job.dataset_scale);
  }
  EXPECT_GT(scales.size(), 32u) << "heavy-tail draws should rarely collide";
}

TEST(GeneratorsTest, ModelMixCyclesThenSamplesWeights) {
  WorkloadSpec spec;
  spec.num_jobs = 10;
  spec.models.names = {"ResNet-50", "Seq2Seq"};
  spec.models.weights = {0.0, 1.0};
  Rng rng(5);
  const std::vector<JobSpec> jobs = GenerateJobs(spec, &rng);
  // cycle_first covers the mix once, then zero-weight models never reappear.
  EXPECT_EQ(jobs[0].model->name, "ResNet-50");
  for (size_t i = 2; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].model->name, "Seq2Seq") << i;
  }
}

TEST(GeneratorsTest, ValidateNamesTheField) {
  WorkloadSpec spec;
  spec.num_jobs = 0;
  spec.models.names = {"no-such-model"};
  std::vector<std::string> errors;
  EXPECT_FALSE(spec.Validate(&errors));
  ASSERT_GE(errors.size(), 2u);
  EXPECT_NE(errors[0].find("jobs: must be >= 1"), std::string::npos);
  bool found_model_error = false;
  for (const std::string& e : errors) {
    found_model_error |= e.find("no-such-model") != std::string::npos;
  }
  EXPECT_TRUE(found_model_error);
}

// ---------------------------------------------------------------------------
// Cluster topology
// ---------------------------------------------------------------------------

ClusterSpec TwoClassCluster() {
  ClusterSpec cluster;
  cluster.testbed = false;
  cluster.classes = {{"cpu", 5, Resources(16, 80, 0, 1)},
                     {"gpu", 3, Resources(8, 48, 2, 1)}};
  cluster.rack_size = 3;
  return cluster;
}

TEST(ClusterSpecTest, BuildsClassBlocksAndRacks) {
  const ClusterSpec cluster = TwoClassCluster();
  EXPECT_EQ(cluster.NumServers(), 8);
  EXPECT_EQ(cluster.NumRacks(), 3);
  EXPECT_EQ(cluster.RackRange(0), (std::pair<int, int>{0, 2}));
  EXPECT_EQ(cluster.RackRange(2), (std::pair<int, int>{6, 7}));  // short rack
  const std::vector<Server> servers = cluster.Build();
  ASSERT_EQ(servers.size(), 8u);
  EXPECT_EQ(servers[0].capacity().cpu(), 16);
  EXPECT_EQ(servers[5].capacity().gpu(), 2);  // first gpu-class server
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(servers[i].id(), i);
  }
}

TEST(ClusterSpecTest, TestbedIgnoresRackSizeZero) {
  ClusterSpec cluster;
  EXPECT_EQ(cluster.NumServers(), 13);
  EXPECT_EQ(cluster.NumRacks(), 1);
  EXPECT_EQ(cluster.RackRange(0), (std::pair<int, int>{0, 12}));
}

// Class counts and rack sizes anywhere in int range count without overflow:
// the parser expands rack references before Validate sees the counts.
TEST(ClusterSpecTest, CountsAndRacksDoNotOverflow) {
  const int max = std::numeric_limits<int>::max();
  ClusterSpec cluster;
  cluster.testbed = false;
  cluster.classes = {{"a", max, Resources(16, 80, 0, 1)}, {"b", 64, Resources(16, 80, 0, 1)}};
  cluster.rack_size = max;
  EXPECT_EQ(cluster.NumServers(), max);
  EXPECT_EQ(cluster.NumRacks(), 1);
  EXPECT_EQ(cluster.RackRange(0), (std::pair<int, int>{0, max - 1}));
  cluster.classes = {{"a", 5, Resources(16, 80, 0, 1)}};
  EXPECT_EQ(cluster.NumRacks(), 1);
  EXPECT_EQ(cluster.RackRange(0), (std::pair<int, int>{0, 4}));
}

TEST(ClusterSpecTest, ValidateCatchesBadClasses) {
  ClusterSpec cluster;
  cluster.testbed = false;
  cluster.classes = {{"", 0, Resources(0, 0, -1, 0)}};
  std::vector<std::string> errors;
  EXPECT_FALSE(cluster.Validate(&errors));
  EXPECT_GE(errors.size(), 4u);
}

TEST(ClusterSpecTest, RackReferenceExpansion) {
  const ClusterSpec cluster = TwoClassCluster();
  std::string expanded;
  std::string error;
  ASSERT_TRUE(ExpandRackReferences("rack@100:rack=1,recover=200", cluster,
                                   &expanded, &error))
      << error;
  EXPECT_EQ(expanded, "rack@100:servers=3-5,recover=200");
  // Out-of-range rack and missing index fail with messages.
  EXPECT_FALSE(ExpandRackReferences("rack@100:rack=9", cluster, &expanded, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(ExpandRackReferences("rack@100:rack=", cluster, &expanded, &error));
  // The event name "rack@" itself is not a reference.
  ASSERT_TRUE(ExpandRackReferences("rack@100:servers=0-2", cluster, &expanded,
                                   &error));
  EXPECT_EQ(expanded, "rack@100:servers=0-2");
}

// ---------------------------------------------------------------------------
// Scenario DSL
// ---------------------------------------------------------------------------

constexpr char kValidScenario[] = R"({
  "schema": "scenario-v2",
  "name": "unit",
  "description": "unit-test scenario",
  "seed": 9,
  "repeats": 2,
  "policies": ["optimus", "drf"],
  "workload": {
    "jobs": 6,
    "arrivals": {"kind": "poisson", "rate_per_interval": 2.0},
    "sizes": {"kind": "lognormal", "lognormal_sigma": 0.5, "target_steps_per_epoch": 20},
    "mode": "sync",
    "max_workers": 8
  },
  "cluster": {
    "classes": [{"name": "std", "count": 6, "cpu": 16, "memory_gb": 80, "gpu": 0, "bandwidth_gbps": 1}],
    "rack_size": 2
  },
  "faults": {"plan": "rack@3600:rack=1,recover=7200"},
  "knobs": {"interval_s": 300.0, "stragglers": 0.05, "oracle": true}
})";

TEST(ScenarioTest, ParsesValidScenario) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenario(kValidScenario, "unit.json", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "unit");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.repeats, 2);
  EXPECT_EQ(spec.policies, (std::vector<std::string>{"optimus", "drf"}));
  EXPECT_EQ(spec.workload.num_jobs, 6);
  EXPECT_EQ(spec.workload.arrivals.kind, ArrivalSpec::Kind::kPoisson);
  EXPECT_EQ(spec.workload.sizes.kind, JobSizeSpec::Kind::kLognormal);
  EXPECT_EQ(spec.workload.forced_mode, TrainingMode::kSync);
  EXPECT_EQ(spec.workload.max_workers, 8);
  EXPECT_FALSE(spec.cluster.testbed);
  EXPECT_EQ(spec.cluster.NumServers(), 6);
  EXPECT_DOUBLE_EQ(spec.sim.interval_s, 300.0);
  // The workload inherits the knob interval when arrivals.interval_s is
  // not given explicitly.
  EXPECT_DOUBLE_EQ(spec.workload.arrivals.interval_s, 300.0);
  EXPECT_DOUBLE_EQ(spec.sim.straggler.injection_prob_per_interval, 0.05);
  EXPECT_TRUE(spec.sim.oracle_estimates);
  // The rack reference expanded against the 2-per-rack layout.
  ASSERT_EQ(spec.sim.fault.plan.outages.size(), 1u);
  EXPECT_EQ(spec.sim.fault.plan.outages[0].servers, (std::vector<ServerRange>{{2, 3}}));
}

// A fault plan naming servers past the cluster: one error per outage, naming
// its first id outside, however wide the range.
TEST(ScenarioTest, FaultPlanServersOutsideTheClusterOneErrorPerOutage) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenario(kValidScenario, "unit.json", &spec, &error)) << error;
  spec.sim.fault.plan = {};
  ASSERT_TRUE(ParseFaultPlan("rack@100:servers=0-200000000;crash@200:server=3;"
                             "crash@300:server=9,recover=400",
                             &spec.sim.fault.plan, &error))
      << error;
  std::vector<std::string> errors;
  EXPECT_FALSE(spec.Validate(&errors));
  EXPECT_EQ(errors, (std::vector<std::string>{
                        "faults.plan: outage 0 names server 6 outside the cluster (0-5)",
                        "faults.plan: outage 2 names server 9 outside the cluster (0-5)"}));
}

TEST(ScenarioTest, UnknownKeysAreRejectedEverywhere) {
  const struct {
    const char* json;
    const char* needle;
  } cases[] = {
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus", "bogus": 1})",
       "unknown key \"bogus\""},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "workload": {"arrivals": {"kindd": "poisson"}}})",
       "unknown key \"kindd\""},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "knobs": {"interval": 300}})",
       "unknown key \"interval\""},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "cluster": {"classes": [{"name": "a", "count": 1, "cpu": 1,
                                    "memory_gb": 1, "gpus": 1}]}})",
       "unknown key \"gpus\""},
  };
  for (const auto& c : cases) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ParseScenario(c.json, "t", &spec, &error)) << c.json;
    EXPECT_NE(error.find(c.needle), std::string::npos) << error;
  }
}

TEST(ScenarioTest, DiagnosticsCarrySourcePositions) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_FALSE(ParseScenario(
      "{\n  \"schema\": \"scenario-v1\",\n  \"name\": \"x\",\n  \"policy\": "
      "\"optimus\",\n  \"mystery\": 1\n}",
      "pos.json", &spec, &error));
  EXPECT_NE(error.find("pos.json:5"), std::string::npos) << error;
}

TEST(ScenarioTest, SchemaVersionsAndDroppedV1Knobs) {
  const char* kTemplate =
      "{\n  \"schema\": \"%s\",\n  \"name\": \"x\",\n"
      "  \"policy\": \"optimus\",\n"
      "  \"workload\": {\"jobs\": 4},\n"
      "  \"cluster\": {\"classes\": [{\"name\": \"a\", \"count\": 4,"
      " \"cpu\": 16, \"memory_gb\": 80, \"gpu\": 0, \"bandwidth_gbps\": 1}]},\n"
      "  \"knobs\": {\"interval_s\": 300.0%s}\n}";
  // Out of range (9 shards on 4 servers) and mistyped: v1 checks neither.
  const char* kDroppedKnobs = ", \"shards\": 9, \"streaming\": \"yes\"";
  char buf[1024];
  std::string error;
  const auto parse = [&](const char* schema, const char* extra, ScenarioSpec* spec) {
    std::snprintf(buf, sizeof(buf), kTemplate, schema, extra);
    return ParseScenario(buf, "knobs.json", spec, &error);
  };
  const auto run = [](const ScenarioSpec& spec) {
    Simulator sim(spec.MakeSimConfig("optimus"), spec.cluster.Build(), spec.JobsForRepeat());
    sim.Run();
    return RunFingerprint::Of(sim);
  };

  // scenario-v1: the keys load and change nothing.
  ScenarioSpec plain;
  ScenarioSpec dropped;
  ASSERT_TRUE(parse("scenario-v1", "", &plain)) << error;
  ASSERT_TRUE(parse("scenario-v1", kDroppedKnobs, &dropped)) << error;
  EXPECT_DOUBLE_EQ(dropped.MakeSimConfig("optimus").interval_s, 300.0);
  const std::vector<JobSpec> jobs = dropped.JobsForRepeat();
  const std::vector<JobSpec> plain_jobs = plain.JobsForRepeat();
  ASSERT_EQ(jobs.size(), plain_jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].arrival_time_s, plain_jobs[i].arrival_time_s);
    EXPECT_EQ(jobs[i].model, plain_jobs[i].model);
  }
  std::string why;
  EXPECT_TRUE(run(dropped).Matches(run(plain), &why)) << why;

  // scenario-v2: each key is an unknown key at its own position.
  ScenarioSpec spec;
  ASSERT_TRUE(parse(kScenarioSchemaVersion, "", &spec)) << error;
  EXPECT_FALSE(parse(kScenarioSchemaVersion, kDroppedKnobs, &spec));
  EXPECT_NE(error.find("knobs.json:7:"), std::string::npos) << error;
  EXPECT_NE(error.find("knobs: unknown key \"shards\""), std::string::npos) << error;
  EXPECT_NE(error.find("knobs: unknown key \"streaming\""), std::string::npos) << error;

  // Any other version string names both accepted versions.
  EXPECT_FALSE(parse("scenario-v3", "", &spec));
  EXPECT_NE(error.find("knobs.json:2:"), std::string::npos) << error;
  EXPECT_NE(error.find("\"scenario-v2\""), std::string::npos) << error;
  EXPECT_NE(error.find("\"scenario-v1\""), std::string::npos) << error;
}

TEST(ScenarioTest, MakeSimConfigCarriesRackLayout) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenario(kValidScenario, "t", &spec, &error)) << error;
  // The cluster's rack_size rides into the per-cell SimulatorConfig.
  EXPECT_EQ(spec.MakeSimConfig("optimus").rack_size, 2);
}

TEST(ScenarioTest, SchemaAndPolicyRequired) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenario(R"({"name": "x", "policy": "optimus"})", "t",
                             &spec, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_FALSE(ParseScenario(R"({"schema": "scenario-v1", "name": "x"})", "t",
                             &spec, &error));
  EXPECT_NE(error.find("policies"), std::string::npos);
  EXPECT_FALSE(ParseScenario(
      R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
          "policies": ["drf"]})",
      "t", &spec, &error));
  EXPECT_NE(error.find("not both"), std::string::npos);
  // Unknown policies are named along with the full set.
  EXPECT_FALSE(ParseScenario(
      R"({"schema": "scenario-v1", "name": "x", "policy": "nope"})", "t", &spec,
      &error));
  EXPECT_NE(error.find("unknown policy 'nope'"), std::string::npos) << error;
  EXPECT_NE(error.find("optimus"), std::string::npos) << error;
}

TEST(ScenarioTest, TypeMismatchesAreDiagnosed) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenario(
      R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
          "seed": "forty-two"})",
      "t", &spec, &error));
  EXPECT_NE(error.find("expected an integer"), std::string::npos) << error;
  EXPECT_FALSE(ParseScenario(
      R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
          "repeats": 2.5})",
      "t", &spec, &error));
  EXPECT_NE(error.find("non-integral"), std::string::npos) << error;
}

// Int fields outside int are positioned errors, not wrapped values, and the
// per-job grid max(max_ps, 1) * max_workers is capped.
TEST(ScenarioTest, OutsideIntAndGridCapsAreRejected) {
  const struct {
    const char* max_workers;
    const char* needle;
  } cases[] = {
      {"3000000000", "t:2:41: workload.max_workers: expected an integer in int range"},
      {"4294967297", "t:2:41: workload.max_workers: expected an integer in int range"},
      {"100000000", "workload.max_workers: max(max_ps, 1) * max_workers must be <= 1048576"},
  };
  for (const auto& c : cases) {
    ScenarioSpec spec;
    std::string error;
    const std::string json =
        std::string(R"({"schema": "scenario-v2", "name": "x", "policy": "optimus",)") +
        "\n \"workload\": {\"jobs\": 2, \"max_workers\": " + c.max_workers + "}}";
    EXPECT_FALSE(ParseScenario(json, "t", &spec, &error)) << c.max_workers;
    EXPECT_NE(error.find(c.needle), std::string::npos) << error;
  }
}

// A job count past kMaxJobs and an interval that makes more than kMaxRounds
// rounds are rejected naming their keys, before anything is allocated or run.
TEST(ScenarioTest, JobCountAndRoundCountAreCapped) {
  const struct {
    const char* members;
    const char* needle;
  } cases[] = {
      {R"("workload": {"jobs": 2000000000})", "t: workload.jobs: must be <= 16777216"},
      {R"("workload": {"jobs": 16777217})", "t: workload.jobs: must be <= 16777216"},
      {R"("knobs": {"interval_s": 1e-300})",
       "t: knobs: interval_s: max_sim_time_s / interval_s must be <= 10000000 rounds"},
      {R"("knobs": {"interval_s": 0.29, "max_sim_time_s": 3e6})", "interval_s"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.members);
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ParseScenario(
        std::string(R"({"schema": "scenario-v2", "name": "x", "policy": "optimus", )") +
            c.members + "}",
        "t", &spec, &error));
    EXPECT_NE(error.find(c.needle), std::string::npos) << error;
  }
  // Both caps are inclusive (parsed, not run).
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(ParseScenario(
      R"({"schema": "scenario-v2", "name": "x", "policy": "optimus",
          "workload": {"jobs": 16777216}, "knobs": {"interval_s": 0.3}})",
      "t", &spec, &error))
      << error;
}

// A bursty interval's Poisson mean past 1e12 (the draw never returns once it
// passes int64) and a cluster past kMaxServers (Build reserves every server)
// are rejected naming their keys; both caps are inclusive.
TEST(ScenarioTest, BurstyMeanAndServerCountAreCapped) {
  const std::string bursty_cap =
      "t: workload.arrivals.rate_per_interval: rate_per_interval * spike_multiplier must be "
      "<= 1e12";
  const std::string server_cap = "t: cluster.classes: must hold at most 1048576 servers";
  const struct {
    std::string members;
    std::string needle;
  } cases[] = {
      {R"("workload": {"jobs": 4, "arrivals": {"kind": "bursty", "spike_multiplier": 1e19}})",
       bursty_cap},
      {R"("workload": {"jobs": 4, "arrivals": {"kind": "bursty", "spike_multiplier": 1e300}})",
       bursty_cap},
      {R"("workload": {"jobs": 4, "arrivals": {"kind": "bursty", "rate_per_interval": 1e30,
          "spike_fraction": 0}})",
       bursty_cap},
      {R"("cluster": {"testbed": false, "classes": [{"name": "a", "count": 2000000000,
          "cpu": 16, "memory_gb": 80}]})",
       server_cap},
      {R"("cluster": {"testbed": false, "classes": [
          {"name": "a", "count": 1048576, "cpu": 16, "memory_gb": 80},
          {"name": "b", "count": 1, "cpu": 16, "memory_gb": 80}]})",
       server_cap},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.members);
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ParseScenario(
        R"({"schema": "scenario-v2", "name": "x", "policy": "optimus", )" + c.members + "}",
        "t", &spec, &error));
    EXPECT_NE(error.find(c.needle), std::string::npos) << error;
  }
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(ParseScenario(
      R"({"schema": "scenario-v2", "name": "x", "policy": "optimus",
          "workload": {"jobs": 4, "arrivals": {"kind": "bursty", "rate_per_interval": 2,
                                               "spike_multiplier": 5e11}},
          "cluster": {"testbed": false, "classes": [
              {"name": "a", "count": 1048576, "cpu": 16, "memory_gb": 80}]}})",
      "t", &spec, &error))
      << error;
  EXPECT_EQ(spec.cluster.NumServers(), kMaxServers);
  // The capped mean still draws: every job lands in the first interval.
  for (const JobSpec& job : spec.JobsForRepeat(0)) {
    EXPECT_LT(job.arrival_time_s, spec.workload.arrivals.interval_s);
  }
}

// No job's dataset may pass kMaxDatasetBytes: a Pareto cap that could take
// one past it is rejected, the largest allowed cap loads, and a lognormal
// draw is clamped to the same bound. Downscaling is off, so each job carries
// its model's full dataset times its multiplier.
TEST(ScenarioTest, SizeMultipliersKeepDatasetsUnderTheCap) {
  const auto parse = [](const std::string& sizes, ScenarioSpec* spec,
                        std::string* error) {
    return ParseScenario(
        R"({"schema": "scenario-v2", "name": "x", "policy": "optimus",
            "workload": {"jobs": 40, "sizes": )" + sizes + "}}",
        "t", spec, error);
  };
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(parse(R"({"kind": "pareto", "pareto_alpha": 0.05, "pareto_cap": 1e12})",
                     &spec, &error));
  EXPECT_NE(error.find("workload.sizes.pareto_cap: must be <= 951"), std::string::npos)
      << error;
  for (const char* sizes :
       {R"({"kind": "pareto", "pareto_alpha": 0.05, "pareto_cap": 951,
            "target_steps_per_epoch": 0})",
        R"({"kind": "lognormal", "lognormal_sigma": 1000, "target_steps_per_epoch": 0})"}) {
    SCOPED_TRACE(sizes);
    ASSERT_TRUE(parse(sizes, &spec, &error)) << error;
    double largest = 0.0;
    for (const JobSpec& job : spec.JobsForRepeat(0)) {
      EXPECT_GT(job.dataset_scale, 0.0);
      EXPECT_EQ(EstimateDatasetBytes(*job.model, job.dataset_scale),
                static_cast<int64_t>(ExactDatasetBytes(*job.model, job.dataset_scale)));
      largest = std::max(largest, ExactDatasetBytes(*job.model, job.dataset_scale));
    }
    // Some job reaches within 1% of the cap, so the bound is what held it.
    EXPECT_LE(largest, static_cast<double>(kMaxDatasetBytes));
    EXPECT_GT(largest, 0.99 * static_cast<double>(kMaxDatasetBytes));
  }
}

TEST(ScenarioTest, NetworkBlockParsesAndDefaultsToFlat) {
  ScenarioSpec spec;
  std::string error;
  // No network block: the flat (exact-compat) model.
  ASSERT_TRUE(ParseScenario(kValidScenario, "t", &spec, &error)) << error;
  EXPECT_EQ(spec.sim.net.model, NetworkConfig::Model::kFlat);

  ASSERT_TRUE(ParseScenario(
      R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
          "network": {"model": "contention", "nic_bps": 125e6,
                      "oversubscription": 4.0}})",
      "t", &spec, &error))
      << error;
  EXPECT_EQ(spec.sim.net.model, NetworkConfig::Model::kContention);
  EXPECT_DOUBLE_EQ(spec.sim.net.nic_bps, 125e6);
  EXPECT_DOUBLE_EQ(spec.sim.net.oversubscription, 4.0);
}

TEST(ScenarioTest, NetworkBlockErrorsCarryPositions) {
  const struct {
    const char* json;
    const char* needle;
  } cases[] = {
      {"{\n  \"schema\": \"scenario-v1\",\n  \"name\": \"x\",\n"
       "  \"policy\": \"optimus\",\n"
       "  \"network\": {\"oversubscription\": 0.5}\n}",
       "net.json:5"},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "network": {"oversubscription": 0.5}})",
       "network.oversubscription: must be >= 1"},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "network": {"model": "fat-tree"}})",
       "unknown network model \"fat-tree\""},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "network": {"oversub": 4.0}})",
       "unknown key \"oversub\""},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "network": {"nic_bps": -1}})",
       "network.nic_bps: must be a finite number > 0"},
  };
  for (const auto& c : cases) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ParseScenario(c.json, "net.json", &spec, &error)) << c.json;
    EXPECT_NE(error.find(c.needle), std::string::npos) << error;
  }
}

TEST(ScenarioTest, CommArchitectureParsesAndValidates) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenario(
      R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
          "workload": {"comm": "allreduce"}})",
      "t", &spec, &error))
      << error;
  EXPECT_EQ(spec.workload.comm, CommMode::kAllReduce);

  const struct {
    const char* json;
    const char* needle;
  } cases[] = {
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "workload": {"comm": "ring"}})",
       "unknown comm architecture \"ring\""},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "workload": {"comm": "allreduce", "mode": "async"}})",
       "allreduce jobs are always synchronous"},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "workload": {"comm": "allreduce",
                        "ps_demand": {"cpu": 4, "memory_gb": 8}}})",
       "run no PS tasks"},
      {R"({"schema": "scenario-v1", "name": "x", "policy": "optimus",
           "workload": {"allreduce_fraction": 1.5}})",
       "allreduce_fraction"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(ParseScenario(c.json, "t", &spec, &error)) << c.json;
    EXPECT_NE(error.find(c.needle), std::string::npos) << error;
  }
}

TEST(ScenarioTest, SeedRoundTripReplaysIdenticalJobs) {
  ScenarioSpec a;
  ScenarioSpec b;
  std::string error;
  ASSERT_TRUE(ParseScenario(kValidScenario, "t", &a, &error)) << error;
  ASSERT_TRUE(ParseScenario(kValidScenario, "t", &b, &error)) << error;
  for (int repeat = 0; repeat < 2; ++repeat) {
    const std::vector<JobSpec> jobs_a = a.JobsForRepeat(repeat);
    const std::vector<JobSpec> jobs_b = b.JobsForRepeat(repeat);
    ASSERT_EQ(jobs_a.size(), jobs_b.size());
    for (size_t i = 0; i < jobs_a.size(); ++i) {
      EXPECT_EQ(jobs_a[i].arrival_time_s, jobs_b[i].arrival_time_s);
      EXPECT_EQ(jobs_a[i].model, jobs_b[i].model);
      EXPECT_EQ(jobs_a[i].dataset_scale, jobs_b[i].dataset_scale);
    }
  }
  // Different repeats draw different workloads.
  EXPECT_NE(a.JobsForRepeat(0)[0].arrival_time_s,
            a.JobsForRepeat(1)[0].arrival_time_s);
}

TEST(ScenarioTest, MakeSimConfigAppliesPolicyPerCell) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenario(kValidScenario, "t", &spec, &error)) << error;
  const SimulatorConfig optimus = spec.MakeSimConfig("optimus", 0);
  EXPECT_EQ(optimus.policy, "optimus");
  EXPECT_TRUE(FindPolicy(optimus.policy)->traits.use_paa);
  EXPECT_EQ(optimus.seed, 9u);
  const SimulatorConfig drf = spec.MakeSimConfig("drf", 1);
  EXPECT_EQ(drf.policy, "drf");
  EXPECT_FALSE(FindPolicy(drf.policy)->traits.use_paa);
  EXPECT_EQ(drf.seed, 10u);
  // Shared knobs survive the policy application, and a cell ablates nothing.
  EXPECT_DOUBLE_EQ(drf.interval_s, 300.0);
  EXPECT_TRUE(drf.oracle_estimates);
  EXPECT_FALSE(drf.ablation.allocator || drf.ablation.placement ||
               drf.ablation.young_job_priority_factor ||
               drf.ablation.straggler_handling);
}

// ---------------------------------------------------------------------------
// Policy table
// ---------------------------------------------------------------------------

TEST(SchedulerRegistryTest, EveryRegisteredPolicyConstructs) {
  const std::span<const SchedulerPolicyInfo> policies = Policies();
  ASSERT_GE(policies.size(), 6u);
  // Canonical rows, in table order (the rack-aware Theorem-1 variant comes
  // right after the policy it refines).
  EXPECT_STREQ(policies[0].name, "optimus");
  EXPECT_STREQ(policies[1].name, "optimus_rack");
  EXPECT_STREQ(policies[2].name, "drf");
  EXPECT_STREQ(policies[3].name, "tetris");
  EXPECT_STREQ(policies[4].name, "fifo");
  EXPECT_STREQ(policies[5].name, "srtf");
  for (const SchedulerPolicyInfo& info : policies) {
    const std::string name = info.name;
    EXPECT_EQ(FindPolicy(name), &info) << name;
    EXPECT_NE(std::string(info.display_name), "") << name;
    EXPECT_NE(std::string(info.description), "") << name;
    OptimusAllocRoundStats stats;
    EXPECT_NE(info.create(&stats), nullptr) << name;
    // Setting the name alone selects the row: placement, PAA, damping and
    // straggler handling come from it unless an ablation field is set.
    SimulatorConfig config;
    config.policy = name;
    std::vector<std::string> errors;
    ASSERT_TRUE(config.Validate(&errors)) << errors.front();
    EXPECT_EQ(config.policy, name);
    EXPECT_EQ(FindPolicy(config.policy)->placement, info.placement);
    EXPECT_FALSE(config.ablation.placement.has_value());
  }
}

TEST(SchedulerRegistryTest, UnknownPolicyNamesTheRegisteredSet) {
  std::string message;
  EXPECT_EQ(FindPolicy("nope", &message), nullptr);
  EXPECT_NE(message.find("'nope'"), std::string::npos);
  for (const SchedulerPolicyInfo& info : Policies()) {
    EXPECT_NE(message.find(info.name), std::string::npos) << message;
  }
  SimulatorConfig config;
  config.policy = "nope";
  std::vector<std::string> errors;
  EXPECT_FALSE(config.Validate(&errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], "policy: " + message);
}

// ---------------------------------------------------------------------------
// Sweep determinism
// ---------------------------------------------------------------------------

ScenarioSpec SmallScenario(const std::string& name, uint64_t seed,
                           ArrivalSpec::Kind arrivals) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.repeats = 2;
  spec.policies = {"optimus", "drf"};
  spec.workload.num_jobs = 5;
  spec.workload.arrivals.kind = arrivals;
  spec.workload.sizes.target_steps_per_epoch = 20;
  spec.sim.straggler.injection_prob_per_interval = 0.12;
  return spec;
}

TEST(SweepTest, MergedReportIsBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<ScenarioSpec> scenarios = {
      SmallScenario("det_a", 3, ArrivalSpec::Kind::kUniform),
      SmallScenario("det_b", 4, ArrivalSpec::Kind::kPoisson),
  };
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions wide;
  wide.threads = 8;
  const SweepResult a = RunSweep(scenarios, serial);
  const SweepResult b = RunSweep(scenarios, wide);
  EXPECT_EQ(MergedSweepJson(scenarios, a), MergedSweepJson(scenarios, b));
  ASSERT_EQ(a.cells.size(), 4u);
  ASSERT_EQ(b.cells.size(), 4u);
  for (size_t i = 0; i < a.cells.size(); ++i) {
    // The per-cell optimus-run-report-v1 bytes must match too (profiling
    // metrics are excluded from the capture).
    EXPECT_EQ(a.cells[i].run_report, b.cells[i].run_report) << i;
    EXPECT_FALSE(a.cells[i].run_report.empty()) << i;
    EXPECT_EQ(a.cells[i].audit_violations_total, 0) << i;
  }
  // Baseline normalization: the first policy of each scenario is 1.0.
  EXPECT_DOUBLE_EQ(a.cells[0].jct_vs_baseline, 1.0);
  EXPECT_DOUBLE_EQ(a.cells[2].jct_vs_baseline, 1.0);
}

TEST(SweepTest, CellGridIsScenarioMajor) {
  const std::vector<ScenarioSpec> scenarios = {
      SmallScenario("grid_a", 3, ArrivalSpec::Kind::kUniform),
      SmallScenario("grid_b", 4, ArrivalSpec::Kind::kUniform),
  };
  SweepOptions options;
  options.threads = 2;
  options.capture_run_reports = false;
  const SweepResult result = RunSweep(scenarios, options);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].scenario, "grid_a");
  EXPECT_EQ(result.cells[0].policy, "optimus");
  EXPECT_EQ(result.cells[1].scenario, "grid_a");
  EXPECT_EQ(result.cells[1].policy, "drf");
  EXPECT_EQ(result.cells[2].scenario, "grid_b");
  EXPECT_EQ(result.cells[3].policy, "drf");
  for (const SweepCellResult& cell : result.cells) {
    EXPECT_TRUE(cell.run_report.empty());
    EXPECT_EQ(cell.repeats, 2);
    EXPECT_GT(cell.avg_jct_mean, 0.0);
  }
}

TEST(SweepTest, ExplicitJobsRowNamesNoGenerator) {
  ScenarioSpec generated = SmallScenario("drawn", 3, ArrivalSpec::Kind::kPoisson);
  ScenarioSpec listed = generated;
  listed.name = "listed";
  listed.jobs = generated.JobsForRepeat(0);
  JsonValue report;
  std::string error;
  ASSERT_TRUE(ParseJson(MergedSweepJson({generated, listed}, SweepResult{}), "report", &report,
                        &error))
      << error;
  const std::vector<JsonValue>& rows = report.Find("scenarios")->AsArray();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].Find("arrivals")->AsString(), "poisson");
  EXPECT_EQ(rows[0].Find("sizes")->AsString(), "zoo");
  EXPECT_EQ(rows[1].Find("jobs")->AsDouble(), 5.0);
  EXPECT_EQ(rows[1].Find("arrivals")->AsString(), "explicit");
  EXPECT_EQ(rows[1].Find("sizes")->AsString(), "explicit");
}

}  // namespace
}  // namespace optimus
