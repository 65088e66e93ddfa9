#include "src/sched/scheduler_registry.h"

#include <sstream>
#include <string_view>

#include "src/common/json_writer.h"
#include "src/sched/baseline_allocators.h"
#include "src/sched/dl2_allocator.h"
#include "src/sched/goodput_allocator.h"
#include "src/sched/synergy_allocator.h"

namespace optimus {

namespace {

// The optimus and optimus_rack allocator: the greedy with its round counters
// going to the metrics registry.
std::unique_ptr<Allocator> CreateOptimus(OptimusAllocRoundStats* stats) {
  return std::make_unique<OptimusAllocator>(stats);
}

std::unique_ptr<Allocator> CreateDrf(OptimusAllocRoundStats*) {
  return std::make_unique<DrfAllocator>();
}

std::unique_ptr<Allocator> CreateTetris(OptimusAllocRoundStats*) {
  return std::make_unique<TetrisAllocator>();
}

std::unique_ptr<Allocator> CreateFifo(OptimusAllocRoundStats*) {
  return std::make_unique<FifoAllocator>();
}

std::unique_ptr<Allocator> CreateSrtf(OptimusAllocRoundStats*) {
  TetrisAllocatorOptions options;
  options.srtf_weight = 1.0;
  return std::make_unique<TetrisAllocator>(options);
}

std::unique_ptr<Allocator> CreateGoodput(OptimusAllocRoundStats* stats) {
  return std::make_unique<GoodputAllocator>(stats);
}

std::unique_ptr<Allocator> CreateSynergy(OptimusAllocRoundStats* stats) {
  return std::make_unique<SynergyAllocator>(stats);
}

std::unique_ptr<Allocator> CreateDl2(OptimusAllocRoundStats* stats) {
  return std::make_unique<Dl2Allocator>(stats);
}

constexpr PolicyTraits kOptimusTraits{.use_paa = true,
                                      .straggler_handling = true,
                                      .young_job_priority_factor = 0.95};

constexpr SchedulerPolicyInfo kPolicies[] = {
    {.name = "optimus",
     .display_name = "Optimus",
     .description = "marginal-gain allocation (Sec 4.1), packed placement, PAA, "
                    "straggler handling, 0.95 young-job damping",
     .placement = PlacementPolicy::kOptimusPack,
     .traits = kOptimusTraits,
     .create = CreateOptimus},
    {.name = "optimus_rack",
     .display_name = "Optimus (rack-aware)",
     .description = "Optimus allocation with rack-aware Theorem-1 placement: each "
                    "job is packed under one edge switch when any rack fits it, so "
                    "its traffic avoids oversubscribed uplinks",
     .placement = PlacementPolicy::kRackPack,
     .traits = kOptimusTraits,
     .create = CreateOptimus},
    // The oblivious work-conserving baseline the paper compares against.
    {.name = "drf",
     .display_name = "DRF",
     .description = "Dominant Resource Fairness (Mesos/YARN-style progressive "
                    "filling), load-balanced placement, stock MXNet block "
                    "assignment",
     .placement = PlacementPolicy::kLoadBalance,
     .traits = {.scaling_hysteresis = false},
     .create = CreateDrf},
    {.name = "tetris",
     .display_name = "Tetris",
     .description = "Tetris-like: SRTF + packing-friendliness score, best-fit "
                    "placement",
     .placement = PlacementPolicy::kTetrisPack,
     .traits = {},
     .create = CreateTetris},
    {.name = "fifo",
     .display_name = "FIFO",
     .description = "strict arrival order, each job filled to its speed knee "
                    "before the next (Sec 2.3's head-of-line baseline), "
                    "load-balanced placement",
     .placement = PlacementPolicy::kLoadBalance,
     .traits = {},
     .create = CreateFifo},
    {.name = "srtf",
     .display_name = "SRTF",
     .description = "pure shortest-remaining-time-first (Tetris score with the "
                    "packing term zeroed), load-balanced placement",
     .placement = PlacementPolicy::kLoadBalance,
     .traits = {},
     .create = CreateSrtf},
    {.name = "goodput",
     .display_name = "Goodput",
     .description = "Pollux-style goodput ascent: co-adapts global batch with "
                    "(p, w) using the statistical-efficiency model, Optimus greedy "
                    "over the composite surfaces (docs/POLICIES.md)",
     .placement = PlacementPolicy::kOptimusPack,
     .traits = {.use_paa = true,
                .straggler_handling = true,
                .young_job_priority_factor = 0.95,
                .adapts_batch = true},
     .create = CreateGoodput},
    {.name = "synergy",
     .display_name = "Synergy",
     .description = "Synergy-style resource-sensitive packing: CPU/mem demands are "
                    "deflated where the job's sensitivity slope is flat, Optimus "
                    "greedy on the deflated vectors (docs/POLICIES.md)",
     .placement = PlacementPolicy::kOptimusPack,
     .traits = {.use_paa = true,
                .straggler_handling = true,
                .young_job_priority_factor = 0.95,
                .uses_sensitivity = true},
     .create = CreateSynergy},
    // The learned scorer replaces Eqn 9 outright; the young-job damping is an
    // Eqn-9 input, so it does not apply here (factor 1.0).
    {.name = "dl2",
     .display_name = "DL2",
     .description = "DL2-style learned policy: linear scorer over per-job "
                    "features, weights trained offline by "
                    "tools/optimus_train_policy (docs/POLICIES.md)",
     .placement = PlacementPolicy::kOptimusPack,
     .traits = {.use_paa = true, .straggler_handling = true},
     .create = CreateDl2},
};

constexpr bool ValidRow(const SchedulerPolicyInfo& row) {
  const bool packed = row.placement == PlacementPolicy::kOptimusPack ||
                      row.placement == PlacementPolicy::kRackPack;
  const double young = row.traits.young_job_priority_factor;
  return row.name != nullptr && row.name[0] != '\0' &&
         row.display_name != nullptr && row.description != nullptr &&
         row.create != nullptr && (!row.traits.use_paa || packed) &&
         young > 0.0 && young <= 1.0;
}

constexpr bool ValidTable(std::span<const SchedulerPolicyInfo> rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!ValidRow(rows[i])) {
      return false;
    }
    for (size_t j = 0; j < i; ++j) {
      if (std::string_view(rows[i].name) == rows[j].name) {
        return false;
      }
    }
  }
  return true;
}

static_assert(ValidTable(kPolicies),
              "every policy row needs a unique non-empty name, a display name, "
              "a description and a create function; PAA needs a packed "
              "placement; the young-job factor must lie in (0, 1]");

}  // namespace

std::span<const SchedulerPolicyInfo> Policies() { return kPolicies; }

const SchedulerPolicyInfo* FindPolicy(const std::string& name, std::string* error) {
  for (const SchedulerPolicyInfo& info : kPolicies) {
    if (name == info.name) {
      return &info;
    }
  }
  if (error != nullptr) {
    *error = "unknown policy '" + name + "' (registered:";
    for (const SchedulerPolicyInfo& info : kPolicies) {
      *error += std::string(" ") + info.name;
    }
    *error += ")";
  }
  return nullptr;
}

std::string PolicyCatalogJson() {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const SchedulerPolicyInfo& info : kPolicies) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    const PolicyTraits& t = info.traits;
    os << "  {\"name\": " << EncodeJsonString(info.name) << ", "
       << "\"display_name\": " << EncodeJsonString(info.display_name) << ", "
       << "\"description\": " << EncodeJsonString(info.description) << ", "
       << "\"placement\": \"" << PlacementPolicyName(info.placement) << "\", "
       << "\"traits\": {"
       << "\"use_paa\": " << flag(t.use_paa) << ", "
       << "\"straggler_handling\": " << flag(t.straggler_handling) << ", "
       << "\"young_job_priority_factor\": " << t.young_job_priority_factor << ", "
       << "\"adapts_batch\": " << flag(t.adapts_batch) << ", "
       << "\"uses_sensitivity\": " << flag(t.uses_sensitivity) << ", "
       << "\"scaling_hysteresis\": " << flag(t.scaling_hysteresis) << "}}";
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace optimus
