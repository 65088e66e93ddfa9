// SchedulerRegistry: the single catalog of scheduling policies.
//
// A policy's registry name (SimulatorConfig::policy) is its only identity:
// the optimus_sim CLI, the scenario DSL and the comparison benches all
// resolve a policy *name* here. A policy bundles everything a
// SimulatorConfig needs to run it: the allocator factory (over the common
// Allocator interface in scheduler.h), the placement scheme, and a
// PolicyTraits block with the behavioral toggles (PAA block assignment,
// straggler handling, young-job damping, batch adaptivity, sensitivity
// awareness, scaling hysteresis) that the paper's §6.1 comparisons switch off
// for the baselines. One path — ApplySchedulerPolicy in src/sim/experiment.h
// — copies the traits onto a SimulatorConfig; nothing else reads the toggles
// field by field.
//
// Built-in policies (registered in scheduler_registry.cc):
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
// New policies register with SchedulerRegistry::Global().Register(...); the
// CLI's `--policy list`, the scenario DSL's policy validation, and the sweep
// tool pick them up with no further wiring. Register validates trait
// combinations (e.g. PAA requires a packed placement) and reports rejects
// through its error out-parameter.

#ifndef SRC_SCHED_SCHEDULER_REGISTRY_H_
#define SRC_SCHED_SCHEDULER_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/optimus_allocator.h"
#include "src/sched/placement.h"
#include "src/sched/scheduler.h"

namespace optimus {

// The behavioral toggles a policy carries beyond its allocator + placement.
// ApplySchedulerPolicy copies the per-run toggles onto the SimulatorConfig in
// one place; scaling_hysteresis is read by the Simulator from the registry
// entry of SimulatorConfig::policy.
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
  // overhead"). Off only for DRF, the oblivious work-conserving baseline.
  bool scaling_hysteresis = true;
};

// Constructs a policy's allocator instances. An interface (not a raw
// std::function) so stateful policies — e.g. DL2 carrying trained weights —
// can hold their state in the factory object instead of globals.
class PolicyFactory {
 public:
  virtual ~PolicyFactory() = default;

  // `stats` carries the greedy-round counters the metrics registry harvests;
  // factories that do not use it ignore it (it may be null).
  virtual std::unique_ptr<Allocator> Create(OptimusAllocRoundStats* stats) const = 0;
};

// Adapter for stateless policies expressed as a plain callable.
class FunctionPolicyFactory : public PolicyFactory {
 public:
  using Fn = std::function<std::unique_ptr<Allocator>(OptimusAllocRoundStats*)>;
  explicit FunctionPolicyFactory(Fn fn) : fn_(std::move(fn)) {}

  std::unique_ptr<Allocator> Create(OptimusAllocRoundStats* stats) const override {
    return fn_(stats);
  }

 private:
  Fn fn_;
};

struct SchedulerPolicyInfo {
  // Registry key, as accepted by --policy and the scenario DSL.
  std::string name;
  // Row label for comparison tables ("Optimus", "DRF", ...).
  std::string display_name;
  // One-line summary for `--policy list` / --help.
  std::string description;
  PlacementPolicy placement = PlacementPolicy::kLoadBalance;
  PolicyTraits traits;
  // Shared so SchedulerPolicyInfo stays copyable; the factory itself is
  // immutable after registration.
  std::shared_ptr<const PolicyFactory> factory;

  // Convenience for stateless registrations.
  void SetFactory(FunctionPolicyFactory::Fn fn) {
    factory = std::make_shared<FunctionPolicyFactory>(std::move(fn));
  }
};

class SchedulerRegistry {
 public:
  // The process-wide registry, with the built-in policies pre-registered in
  // canonical order (optimus, optimus_rack, drf, tetris, fifo, srtf,
  // goodput, synergy, dl2).
  static SchedulerRegistry& Global();

  // Registers a policy. Returns false (and changes nothing) when the info is
  // invalid: empty name, null factory, duplicate name, or a trait-invalid
  // combination (PAA without a packed placement; young-job factor outside
  // (0, 1]). On rejection `error` (when non-null) receives a message naming
  // the offending policy and field.
  bool Register(SchedulerPolicyInfo info, std::string* error = nullptr);

  // Looks up a policy; null when unknown.
  const SchedulerPolicyInfo* Find(const std::string& name) const;
  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  // Policy names in registration order (built-ins first).
  std::vector<std::string> Names() const;

  // Policy infos in registration order, for catalog emitters.
  const std::vector<SchedulerPolicyInfo>& Policies() const { return policies_; }

  // Constructs the named policy's allocator; null on an unknown name.
  std::unique_ptr<Allocator> Create(const std::string& name,
                                    OptimusAllocRoundStats* stats) const;

  // "unknown policy 'x' (registered: optimus, drf, ...)" — the canonical
  // error message, so every frontend names the available set.
  std::string UnknownPolicyMessage(const std::string& name) const;

 private:
  SchedulerRegistry() = default;

  std::vector<SchedulerPolicyInfo> policies_;  // registration order
};

}  // namespace optimus

#endif  // SRC_SCHED_SCHEDULER_REGISTRY_H_
