#include "src/cluster/resources.h"

#include <cmath>
#include <sstream>

namespace optimus {

Resources::Resources(double cpu, double memory_gb, double gpu, double bandwidth_gbps) {
  values_[static_cast<size_t>(ResourceType::kCpu)] = cpu;
  values_[static_cast<size_t>(ResourceType::kMemoryGb)] = memory_gb;
  values_[static_cast<size_t>(ResourceType::kGpu)] = gpu;
  values_[static_cast<size_t>(ResourceType::kBandwidthGbps)] = bandwidth_gbps;
}

bool Resources::IsNonNegative() const {
  for (double v : values_) {
    if (v < -kEps) {
      return false;
    }
  }
  return true;
}

double Resources::DominantShare(const Resources& capacity) const {
  double share = 0.0;
  for (size_t i = 0; i < kNumResourceTypes; ++i) {
    if (capacity.values_[i] > kEps) {
      share = std::max(share, values_[i] / capacity.values_[i]);
    }
  }
  return share;
}

ResourceType Resources::DominantResource(const Resources& capacity) const {
  double share = -1.0;
  size_t best = 0;
  for (size_t i = 0; i < kNumResourceTypes; ++i) {
    if (capacity.values_[i] > kEps) {
      const double s = values_[i] / capacity.values_[i];
      if (s > share) {
        share = s;
        best = i;
      }
    }
  }
  return static_cast<ResourceType>(best);
}

std::string Resources::ToString() const {
  std::ostringstream os;
  os << "{cpu=" << cpu() << ", mem=" << memory_gb() << "GB, gpu=" << gpu()
     << ", bw=" << bandwidth_gbps() << "Gbps}";
  return os.str();
}

}  // namespace optimus
