// Fig 17: sensitivity to the job-arrival process — a Poisson process (3
// arrivals per scheduling interval) and a bursty Google-cluster-trace-like
// process.

#include <iostream>
#include <utility>

#include "bench/bench_util.h"

int main() {
  using namespace optimus;
  PrintExperimentHeader(
      "Fig 17", "Sensitivity to job arrival processes (Poisson, Google-trace)",
      "Optimus wins under both; its edge grows under the bursty Google-trace "
      "arrivals because it absorbs arrival spikes by reallocating");

  const std::pair<ArrivalSpec::Kind, const char*> processes[] = {
      {ArrivalSpec::Kind::kPoisson, "poisson"},
      {ArrivalSpec::Kind::kBursty, "google-trace"}};
  for (const auto& [kind, label] : processes) {
    ScenarioSpec scenario = TestbedScenario();
    scenario.workload.num_jobs = 12;
    scenario.workload.arrivals.kind = kind;
    RunPolicyComparison(scenario, label);
  }
  return 0;
}
