// Multi-dimensional resource vectors.
//
// The paper's cluster has R resource types (CPU cores, memory, GPU,
// bandwidth); DRF-style dominant shares and the capacity constraint (Eqn 7)
// both operate on these vectors.

#ifndef SRC_CLUSTER_RESOURCES_H_
#define SRC_CLUSTER_RESOURCES_H_

#include <array>
#include <cstddef>
#include <string>

namespace optimus {

enum class ResourceType {
  kCpu = 0,
  kMemoryGb = 1,
  kGpu = 2,
  kBandwidthGbps = 3,
};

inline constexpr size_t kNumResourceTypes = 4;

class Resources {
 public:
  Resources() { values_.fill(0.0); }
  Resources(double cpu, double memory_gb, double gpu, double bandwidth_gbps);

  double Get(ResourceType type) const { return values_[static_cast<size_t>(type)]; }
  void Set(ResourceType type, double value) { values_[static_cast<size_t>(type)] = value; }

  double cpu() const { return Get(ResourceType::kCpu); }
  double memory_gb() const { return Get(ResourceType::kMemoryGb); }
  double gpu() const { return Get(ResourceType::kGpu); }
  double bandwidth_gbps() const { return Get(ResourceType::kBandwidthGbps); }

  // The arithmetic and Fits are inline: placement calls them per candidate
  // server per task.
  Resources& operator+=(const Resources& other) {
    for (size_t i = 0; i < kNumResourceTypes; ++i) {
      values_[i] += other.values_[i];
    }
    return *this;
  }
  Resources& operator-=(const Resources& other) {
    for (size_t i = 0; i < kNumResourceTypes; ++i) {
      values_[i] -= other.values_[i];
    }
    return *this;
  }
  friend Resources operator+(Resources a, const Resources& b) { return a += b; }
  friend Resources operator-(Resources a, const Resources& b) { return a -= b; }
  Resources operator*(double scalar) const {
    Resources out = *this;
    for (double& v : out.values_) {
      v *= scalar;
    }
    return out;
  }
  bool operator==(const Resources& other) const { return values_ == other.values_; }

  // True when every component of `demand` fits within this vector (with a
  // small epsilon for floating-point accumulation).
  bool Fits(const Resources& demand) const {
    for (size_t i = 0; i < kNumResourceTypes; ++i) {
      if (demand.values_[i] > values_[i] + kEps) {
        return false;
      }
    }
    return true;
  }

  // True when all components are >= 0 (within epsilon).
  bool IsNonNegative() const;

  // Largest ratio demand_r / capacity_r over resource types with nonzero
  // capacity — the DRF dominant share of `this` demand under `capacity`.
  double DominantShare(const Resources& capacity) const;

  // The resource type achieving the dominant share.
  ResourceType DominantResource(const Resources& capacity) const;

  std::string ToString() const;

 private:
  // Tolerance of Fits, IsNonNegative and the dominant-share denominators.
  static constexpr double kEps = 1e-9;

  std::array<double, kNumResourceTypes> values_;
};

}  // namespace optimus

#endif  // SRC_CLUSTER_RESOURCES_H_
