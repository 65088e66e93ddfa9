#include "src/sched/scheduler_registry.h"

#include "src/sched/baseline_allocators.h"
#include "src/sched/dl2_allocator.h"
#include "src/sched/goodput_allocator.h"
#include "src/sched/synergy_allocator.h"

namespace optimus {

namespace {

PolicyTraits OptimusTraits() {
  PolicyTraits traits;
  traits.use_paa = true;
  traits.straggler_handling = true;
  traits.young_job_priority_factor = 0.95;
  return traits;
}

// The optimus and optimus_rack allocator: the greedy with its round counters
// going to the metrics registry.
std::unique_ptr<Allocator> MakeOptimusAllocator(OptimusAllocRoundStats* stats) {
  OptimusAllocatorOptions options;
  options.stats = stats;
  return std::make_unique<OptimusAllocator>(options);
}

void RegisterBuiltins(SchedulerRegistry* registry) {
  {
    SchedulerPolicyInfo info;
    info.name = "optimus";
    info.display_name = "Optimus";
    info.description =
        "marginal-gain allocation (Sec 4.1), packed placement, PAA, "
        "straggler handling, 0.95 young-job damping";
    info.placement = PlacementPolicy::kOptimusPack;
    info.traits = OptimusTraits();
    info.SetFactory(MakeOptimusAllocator);
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "optimus_rack";
    info.display_name = "Optimus (rack-aware)";
    info.description =
        "Optimus allocation with rack-aware Theorem-1 placement: each job is "
        "packed under one edge switch when any rack fits it, so its traffic "
        "avoids oversubscribed uplinks";
    info.placement = PlacementPolicy::kRackPack;
    info.traits = OptimusTraits();
    info.SetFactory(MakeOptimusAllocator);
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "drf";
    info.display_name = "DRF";
    info.description =
        "Dominant Resource Fairness (Mesos/YARN-style progressive filling), "
        "load-balanced placement, stock MXNet block assignment";
    info.placement = PlacementPolicy::kLoadBalance;
    // The oblivious work-conserving baseline the paper compares against.
    info.traits.scaling_hysteresis = false;
    info.SetFactory([](OptimusAllocRoundStats*) -> std::unique_ptr<Allocator> {
      return std::make_unique<DrfAllocator>();
    });
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "tetris";
    info.display_name = "Tetris";
    info.description =
        "Tetris-like: SRTF + packing-friendliness score, best-fit placement";
    info.placement = PlacementPolicy::kTetrisPack;
    info.SetFactory([](OptimusAllocRoundStats*) -> std::unique_ptr<Allocator> {
      return std::make_unique<TetrisAllocator>();
    });
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "fifo";
    info.display_name = "FIFO";
    info.description =
        "strict arrival order, each job filled to its speed knee before the "
        "next (Sec 2.3's head-of-line baseline), load-balanced placement";
    info.placement = PlacementPolicy::kLoadBalance;
    info.SetFactory([](OptimusAllocRoundStats*) -> std::unique_ptr<Allocator> {
      return std::make_unique<FifoAllocator>();
    });
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "srtf";
    info.display_name = "SRTF";
    info.description =
        "pure shortest-remaining-time-first (Tetris score with the packing "
        "term zeroed), load-balanced placement";
    info.placement = PlacementPolicy::kLoadBalance;
    info.SetFactory([](OptimusAllocRoundStats*) -> std::unique_ptr<Allocator> {
      TetrisAllocatorOptions options;
      options.srtf_weight = 1.0;
      return std::make_unique<TetrisAllocator>(options);
    });
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "goodput";
    info.display_name = "Goodput";
    info.description =
        "Pollux-style goodput ascent: co-adapts global batch with (p, w) "
        "using the statistical-efficiency model, Optimus greedy over the "
        "composite surfaces (docs/POLICIES.md)";
    info.placement = PlacementPolicy::kOptimusPack;
    info.traits = OptimusTraits();
    info.traits.adapts_batch = true;
    info.SetFactory([](OptimusAllocRoundStats* stats) -> std::unique_ptr<Allocator> {
      GoodputAllocatorOptions options;
      options.stats = stats;
      return std::make_unique<GoodputAllocator>(options);
    });
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "synergy";
    info.display_name = "Synergy";
    info.description =
        "Synergy-style resource-sensitive packing: CPU/mem demands are "
        "deflated where the job's sensitivity slope is flat, Optimus greedy "
        "on the deflated vectors (docs/POLICIES.md)";
    info.placement = PlacementPolicy::kOptimusPack;
    info.traits = OptimusTraits();
    info.traits.uses_sensitivity = true;
    info.SetFactory([](OptimusAllocRoundStats* stats) -> std::unique_ptr<Allocator> {
      SynergyAllocatorOptions options;
      options.stats = stats;
      return std::make_unique<SynergyAllocator>(options);
    });
    registry->Register(std::move(info));
  }
  {
    SchedulerPolicyInfo info;
    info.name = "dl2";
    info.display_name = "DL2";
    info.description =
        "DL2-style learned policy: linear scorer over per-job features, "
        "weights trained offline by tools/optimus_train_policy "
        "(docs/POLICIES.md)";
    info.placement = PlacementPolicy::kOptimusPack;
    info.traits = OptimusTraits();
    // The learned scorer replaces Eqn 9 outright; the young-job damping is an
    // Eqn-9 input, so it does not apply here.
    info.traits.young_job_priority_factor = 1.0;
    info.factory = std::make_shared<Dl2PolicyFactory>(DefaultDl2Weights());
    registry->Register(std::move(info));
  }
}

}  // namespace

SchedulerRegistry& SchedulerRegistry::Global() {
  static SchedulerRegistry* registry = [] {
    auto* r = new SchedulerRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

bool SchedulerRegistry::Register(SchedulerPolicyInfo info, std::string* error) {
  const auto reject = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "policy '" + info.name + "': " + message;
    }
    return false;
  };
  if (info.name.empty()) {
    return reject("name must be non-empty");
  }
  if (info.factory == nullptr) {
    return reject("factory must be non-null");
  }
  if (Find(info.name) != nullptr) {
    return reject("name is already registered");
  }
  if (info.traits.use_paa && info.placement != PlacementPolicy::kOptimusPack &&
      info.placement != PlacementPolicy::kRackPack) {
    return reject(
        "traits.use_paa requires a packed placement (optimus_pack or "
        "rack_pack); got placement '" +
        std::string(PlacementPolicyName(info.placement)) + "'");
  }
  if (!(info.traits.young_job_priority_factor > 0.0) ||
      info.traits.young_job_priority_factor > 1.0) {
    return reject("traits.young_job_priority_factor must lie in (0, 1]");
  }
  if (info.display_name.empty()) {
    info.display_name = info.name;
  }
  policies_.push_back(std::move(info));
  return true;
}

const SchedulerPolicyInfo* SchedulerRegistry::Find(const std::string& name) const {
  for (const SchedulerPolicyInfo& info : policies_) {
    if (info.name == name) {
      return &info;
    }
  }
  return nullptr;
}

std::vector<std::string> SchedulerRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(policies_.size());
  for (const SchedulerPolicyInfo& info : policies_) {
    names.push_back(info.name);
  }
  return names;
}

std::unique_ptr<Allocator> SchedulerRegistry::Create(
    const std::string& name, OptimusAllocRoundStats* stats) const {
  const SchedulerPolicyInfo* info = Find(name);
  if (info == nullptr) {
    return nullptr;
  }
  return info->factory->Create(stats);
}

std::string SchedulerRegistry::UnknownPolicyMessage(const std::string& name) const {
  std::string msg = "unknown policy '" + name + "' (registered:";
  for (const SchedulerPolicyInfo& info : policies_) {
    msg += " " + info.name;
  }
  msg += ")";
  return msg;
}

}  // namespace optimus
