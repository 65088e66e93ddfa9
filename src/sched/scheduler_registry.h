// The policy table: the single catalog of scheduling policies.
//
// A policy's name (SimulatorConfig::policy) is its only identity: the
// optimus_sim CLI, the scenario DSL and the comparison benches all resolve a
// policy *name* here. A row bundles everything a run of the policy needs: the
// allocator constructor (over the common Allocator interface in scheduler.h),
// the placement scheme, and a PolicyTraits block with the behavioral toggles
// (PAA block assignment, straggler handling, young-job damping, batch
// adaptivity, sensitivity awareness, scaling hysteresis) that the paper's
// §6.1 comparisons switch off for the baselines. The Simulator resolves the
// row of SimulatorConfig::policy once, at construction; the paper's ablations
// replace single choices through SimulatorConfig::ablation (PolicyAblation in
// src/sim/simulator.h). No config field copies a trait.
//
// The rows (kPolicies in scheduler_registry.cc), in order:
//   optimus       marginal-gain allocation (§4.1), packed placement, PAA,
//                 straggler handling, 0.95 young-job damping
//   optimus_rack  same allocation with rack-aware Theorem-1 placement
//   drf           Dominant Resource Fairness, load-balanced placement
//   tetris        SRTF + packing score, best-fit placement
//   fifo          strict arrival order (§2.3's head-of-line baseline)
//   srtf          pure shortest-remaining-time-first
//   goodput       Pollux-style goodput ascent: co-adapts global batch with
//                 (p, w) using statistical efficiency (docs/POLICIES.md)
//   synergy       Synergy-style resource-sensitive packing: under-provisions
//                 CPU/mem where the job's sensitivity slope is flat
//   dl2           DL2-style learned policy: linear scorer over job features,
//                 weights trained offline by tools/optimus_train_policy
//
// A new policy is one row in kPolicies, checked at compile time (unique
// non-empty names, a constructor, PAA only with a packed placement, a
// young-job factor in (0, 1]); the CLI's `--policy list`, the scenario DSL's
// policy validation, and the sweep tool pick it up with no further wiring.

#ifndef SRC_SCHED_SCHEDULER_REGISTRY_H_
#define SRC_SCHED_SCHEDULER_REGISTRY_H_

#include <memory>
#include <span>
#include <string>

#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sched/scheduler.h"

namespace optimus {

// The behavioral toggles a policy carries beyond its allocator + placement,
// read by the Simulator from the row of SimulatorConfig::policy.
struct PolicyTraits {
  // Parameter-assignment-aware block placement (§5.2). Only meaningful — and
  // only valid — with a packed placement (kOptimusPack / kRackPack).
  bool use_paa = false;
  // Straggler detection + speculative relaunch (§5.3).
  bool straggler_handling = false;
  // Marginal-gain damping for jobs whose predictions are still unreliable
  // (§4.1 suggests 0.95). Must lie in (0, 1].
  double young_job_priority_factor = 1.0;
  // Policy may return Allocation::global_batch != 0 (Pollux-style).
  bool adapts_batch = false;
  // Policy reads SchedJob::{cpu,mem}_sensitivity (Synergy-style).
  bool uses_sensitivity = false;
  // Keep a job's old (p, w) when the estimated completion-time saving of the
  // new one does not cover the checkpoint-restart stall (§7 "Scaling
  // overhead"; WorthRescaling in scheduler.h). Off only for DRF, the
  // oblivious work-conserving baseline.
  bool scaling_hysteresis = true;
};

struct SchedulerPolicyInfo {
  // Table key, as accepted by --policy and the scenario DSL.
  const char* name = nullptr;
  // Row label for comparison tables ("Optimus", "DRF", ...).
  const char* display_name = nullptr;
  // One-line summary for `--policy list` / --help.
  const char* description = nullptr;
  PlacementPolicy placement = PlacementPolicy::kLoadBalance;
  PolicyTraits traits;
  // Constructs the policy's allocator. `stats` carries the greedy-round
  // counters the metrics registry harvests; allocators that do not use it
  // ignore it (it may be null).
  std::unique_ptr<Allocator> (*create)(OptimusAllocRoundStats* stats) = nullptr;
};

// Every policy, in table order (optimus, optimus_rack, drf, tetris, fifo,
// srtf, goodput, synergy, dl2).
std::span<const SchedulerPolicyInfo> Policies();

// Looks up a policy by name. Null when unknown; `error` (when non-null) then
// receives "unknown policy 'x' (registered: optimus drf ...)", the canonical
// message, so every frontend names the available set.
const SchedulerPolicyInfo* FindPolicy(const std::string& name,
                                      std::string* error = nullptr);

// The table as a JSON array (`optimus_sim --policy list --format=json`): one
// object per row with its placement and traits, so harnesses can discover
// capabilities without parsing the human table.
std::string PolicyCatalogJson();

}  // namespace optimus

#endif  // SRC_SCHED_SCHEDULER_REGISTRY_H_
