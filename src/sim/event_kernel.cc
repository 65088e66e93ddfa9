#include "src/sim/event_kernel.h"

namespace optimus {

const char* SimEventKindName(SimEventKind kind) {
  switch (kind) {
    case SimEventKind::kArrival:
      return "arrival";
    case SimEventKind::kEpoch:
      return "epoch";
    case SimEventKind::kFaultPlan:
      return "fault_plan";
    case SimEventKind::kRound:
      return "round";
  }
  return "unknown";
}

}  // namespace optimus
