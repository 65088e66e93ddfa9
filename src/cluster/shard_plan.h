// Rack-aligned partition of the server list into contiguous shards.
//
// A ShardPlan splits server ids [0, n) into `num_shards` contiguous ranges
// whose boundaries coincide with rack boundaries (the scenario DSL's
// `cluster.rack_size` layout) whenever a rack partition exists. The packing
// placement (src/sched/placement.h) keeps one server heap per range, which
// reduces to a single global heap when the plan has one shard.
//
// The plan is a pure function of (num_shards, n_servers, rack_size) — no
// randomness, no dependence on server state — so every (shards, threads)
// configuration sees the same partition.

#ifndef SRC_CLUSTER_SHARD_PLAN_H_
#define SRC_CLUSTER_SHARD_PLAN_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace optimus {

class ShardPlan {
 public:
  // Empty plan: no shards and no servers (num_shards() == 0). PlaceJobs
  // reads it as one shard covering whatever server list it is given.
  ShardPlan() = default;

  // Splits [0, n_servers) into `num_shards` contiguous ranges. With a rack
  // partition (rack_size > 0) every boundary lands on a rack edge: racks are
  // dealt to shards as evenly as contiguity allows, so no rack is split
  // across shards. Without racks the split is an even server-count split.
  // num_shards is clamped to [1, max(1, n_servers)]; shards beyond the
  // number of racks come out empty (harmless, never chosen by the scenario
  // validator).
  static ShardPlan Build(int num_shards, int n_servers, int rack_size);

  int num_shards() const { return static_cast<int>(ranges_.size()); }
  int n_servers() const { return n_servers_; }
  // Shard s's server-id range [first, second).
  const std::pair<int, int>& range(int s) const { return ranges_[static_cast<size_t>(s)]; }
  // Shard owning server id `s` (ranges are contiguous and cover [0, n)).
  int ShardOf(int server) const;

 private:
  int n_servers_ = 0;
  std::vector<std::pair<int, int>> ranges_;
};

}  // namespace optimus

#endif  // SRC_CLUSTER_SHARD_PLAN_H_
