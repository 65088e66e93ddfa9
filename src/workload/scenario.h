// Scenario DSL (`scenario-v2`): one JSON file describing a complete
// experiment — workload generator, cluster topology, scheduling policies,
// fault plan, and simulator knobs — loadable by `optimus_sim --scenario` and
// fanned out over a grid by `optimus_sweep`.
//
// The paper's §6 evaluation is exactly this shape: replay one workload over
// one cluster under several schedulers and compare JCT/makespan. Encoding the
// shape declaratively means "open a new workload" is a new JSON file, not a
// C++ edit.
//
// Validation is strict: unknown keys are rejected with their line/column and
// the allowed-key set, policy names are checked against the policy table,
// and the assembled SimulatorConfig goes through the same Validate() the
// simulator constructor enforces. A scenario that loads is a scenario that
// runs. See docs/SCENARIOS.md for the schema reference.

#ifndef SRC_WORKLOAD_SCENARIO_H_
#define SRC_WORKLOAD_SCENARIO_H_

#include <string>
#include <utility>
#include <vector>

#include "src/cluster/server.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace optimus {

// Schema version of a scenario file's top-level "schema" key. The parser also
// loads the older "scenario-v1", whose only difference is two knobs v2
// dropped (knobs.shards and knobs.streaming); it ignores them.
inline constexpr char kScenarioSchemaVersion[] = "scenario-v2";

// One homogeneous block of servers ("7x cpu-class, 6x gpu-class"); the
// paper's testbed is heterogeneous in exactly this way.
struct ServerClassSpec {
  std::string name;
  int count = 0;
  Resources capacity;
};

// Cap on a cluster's servers: 2^20, 10x the largest committed cluster (100,000
// servers), so a bad count fails validation instead of exhausting memory.
inline constexpr int64_t kMaxServers = int64_t{1} << 20;

// Cluster topology: either the paper's 13-server testbed or an explicit list
// of server classes, laid out in contiguous id blocks (class order), plus an
// optional rack partition. Racks exist so fault plans can say "rack 2 loses
// power" without hand-resolving server ids; `rack=K` references in a
// scenario's fault plan expand to the rack's server range.
struct ClusterSpec {
  bool testbed = true;
  std::vector<ServerClassSpec> classes;  // used when testbed == false
  // Servers per rack (contiguous ids; the last rack may be short). 0 = the
  // whole cluster is one rack.
  int rack_size = 0;

  int NumServers() const;
  int NumRacks() const;
  // Rack k's inclusive server-id range; fatal when k is out of range.
  std::pair<int, int> RackRange(int rack) const;
  // Materializes the servers (fatal on an invalid spec).
  std::vector<Server> Build() const;

  // "cluster.<field>: problem" messages; returns whether the spec is valid.
  bool Validate(std::vector<std::string>* errors) const;
};

// A parsed scenario: everything needed to run its policy grid.
struct ScenarioSpec {
  std::string name;
  std::string description;
  uint64_t seed = 42;
  int repeats = 3;
  // Policy grid (policy-table names); the first entry is the
  // normalization baseline in comparison tables.
  std::vector<std::string> policies;
  // The generator of every repeat's jobs, unless `jobs` lists them. With
  // explicit jobs, num_jobs is their count and nothing else is read.
  WorkloadSpec workload;
  // Explicit jobs (the top-level "jobs" array): every repeat runs these,
  // in arrival order. Empty = generate from `workload`.
  std::vector<JobSpec> jobs;
  ClusterSpec cluster;
  // Knobs + fault plan folded in; `policy` is applied per grid cell by
  // MakeSimConfig. The embedded fault plan has rack references already
  // expanded against `cluster`.
  SimulatorConfig sim;

  // Cross-field validation (policies registered, workload/cluster/sim each
  // valid); messages are scenario-relative ("workload.jobs: ..."). Explicit
  // jobs were checked, one by one, when they were read.
  bool Validate(std::vector<std::string>* errors) const;

  // SimulatorConfig for one grid cell: `sim` with the policy applied and
  // seed = this->seed + repeat. Fatal on an unknown policy.
  SimulatorConfig MakeSimConfig(const std::string& policy, int repeat = 0) const;

  // The jobs for one repeat: the explicit `jobs`, or GenerateJobs seeded
  // with seed + repeat, so every policy in the grid replays the identical
  // workload per repeat.
  std::vector<JobSpec> JobsForRepeat(int repeat = 0) const;
};

// Encodes jobs as a scenario's "jobs" value (the job record, one per line, in
// docs/SCENARIOS.md): every JobSpec field, with shortest round-trip doubles,
// so ParseScenario reads back exactly `jobs`.
std::string EncodeJobRecords(const std::vector<JobSpec>& jobs);

// Parses scenario-v2 (or scenario-v1) JSON text. On failure returns false and
// sets `*error` to a "<source>:<line>:<col>: <path>: message" diagnostic
// (parse errors) or a semicolon-joined validation list.
bool ParseScenario(const std::string& text, const std::string& source_name,
                   ScenarioSpec* spec, std::string* error);

// Reads and parses a scenario file.
bool LoadScenarioFile(const std::string& path, ScenarioSpec* spec,
                      std::string* error);

// Expands `rack=K` references in a fault-plan spec against the cluster's rack
// layout (producing the `servers=A-B` form ParseFaultPlan accepts). Returns
// false on an unknown rack or malformed reference.
bool ExpandRackReferences(const std::string& plan, const ClusterSpec& cluster,
                          std::string* expanded, std::string* error);

}  // namespace optimus

#endif  // SRC_WORKLOAD_SCENARIO_H_
