// Pluggable network fidelity models (topology, flow-level contention).
//
// The paper's Eqn-2 communication model charges every cross-server byte a
// flat per-container bandwidth (CommConfig::container_bandwidth_bps). This
// subsystem optionally replaces that constant with a fabric:
//
//   server NIC  ->  rack edge switch  ->  aggregation core
//
// Link capacities derive from the scenario's `rack_size` layout: one NIC per
// server at `nic_bps`, one rack uplink per rack at
// `rack_size * nic_bps / oversubscription` (the classic oversubscription
// ratio; 1.0 = non-blocking). The core is non-blocking; edge switches are
// non-blocking for intra-rack traffic, so a job packed under one edge switch
// never pays the uplink.
//
// Each running job emits one flow per server it occupies; a flow's path is
// its server's NIC, plus the rack uplink when the job spans racks. Three
// models:
//
//   kFlat        — no model object at all (Create returns nullptr); callers
//                  keep the Eqn-2 constant, bit-identical to before.
//   kTopology    — each job is solved in isolation against the fabric: its
//                  bandwidth is min(nic, uplink / servers-in-rack) over its
//                  own flows. Captures oversubscription, ignores other jobs.
//   kContention  — all jobs' flows share the fabric; per-flow rates come
//                  from a deterministic max-min fair-share solve
//                  (progressive filling), and a job's bandwidth is the rate
//                  of its slowest flow (the Theorem-1 worst-task rule).
//
// The solve is serial and a pure function of (config, placements registered
// in job order), so simulation outputs stay bitwise identical across thread
// counts and engines.

#ifndef SRC_NET_NETWORK_MODEL_H_
#define SRC_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pserver/comm_model.h"

namespace optimus {

struct NetworkConfig {
  enum class Model {
    kFlat,        // Eqn-2 constant; the exact-compat default
    kTopology,    // fabric-aware, per-job isolation
    kContention,  // fabric-aware, max-min fair share across jobs
  };
  Model model = Model::kFlat;
  // Per-server NIC capacity in bytes/s (default: 1 GbE line rate).
  double nic_bps = 125e6;
  // Rack-uplink oversubscription ratio (>= 1.0). Uplink capacity =
  // rack_size * nic_bps / oversubscription.
  double oversubscription = 1.0;
};

const char* NetworkModelName(NetworkConfig::Model model);
// Parses "flat" / "topology" / "contention"; returns false on anything else.
bool ParseNetworkModelName(const std::string& name, NetworkConfig::Model* out);

// Counters and gauges describing the last round's solve; exported through
// the observability registry. All values are deterministic (the solve is
// serial and placement-driven).
struct NetworkStats {
  int64_t solves = 0;           // rounds solved since construction
  int64_t flows = 0;            // flows registered, cumulative
  int64_t contended_flows = 0;  // flows below their isolated rate, cumulative
  int num_links = 0;
  double max_link_utilization = 0.0;   // last solve
  double mean_link_utilization = 0.0;  // last solve, over all links
};

class NetworkModel {
 public:
  // Builds the fabric for `n_servers` servers in racks of `rack_size`
  // (rack_size <= 0: a single non-blocking switch, NICs only).
  NetworkModel(const NetworkConfig& config, int n_servers, int rack_size);

  // Returns nullptr for kFlat: no model means no behavior change.
  static std::unique_ptr<NetworkModel> Create(const NetworkConfig& config,
                                              int n_servers, int rack_size);

  // Round protocol: BeginRound, then AddJob for every running job in
  // ascending job-id order, then Solve. BandwidthFor answers from the last
  // solve.
  void BeginRound();
  // Registers the job's flows. Placements confined to one server emit no
  // flows (the job never touches the network; its bandwidth reads as the
  // NIC line rate).
  void AddJob(int job_id, const JobPlacement& placement);
  void Solve();

  // Effective per-container bandwidth (bytes/s) for the job: the rate of its
  // slowest flow from the last solve. Jobs not registered in the last round
  // (or with no flows) get the NIC line rate.
  double BandwidthFor(int job_id) const;

  // Contention weight of a server from the last solve, in (0, 1]: the
  // residual headroom of the most utilized link on the server's path to the
  // core. 1.0 = idle fabric. Used by the PAA contention-aware tie-break.
  double ServerWeight(int server) const;

  const NetworkConfig& config() const { return config_; }
  const NetworkStats& stats() const { return stats_; }
  int n_servers() const { return n_servers_; }
  int num_racks() const { return num_racks_; }

  // Link capacity lookup for tests: link ids [0, n_servers) are NICs,
  // [n_servers, n_servers + num_racks) are rack uplinks.
  double LinkCapacity(int link) const;

 private:
  struct Flow {
    int job = 0;
    int nic_link = -1;
    int uplink = -1;  // -1 when the job stays inside one rack
    double rate = 0.0;
    bool frozen = false;
  };

  int RackOf(int server) const;
  void SolveTopology();
  void SolveContention();
  void UpdateUtilization();

  NetworkConfig config_;
  int n_servers_ = 0;
  int rack_size_ = 0;
  int num_racks_ = 0;
  std::vector<double> link_capacity_;     // NICs then uplinks
  std::vector<double> link_utilization_;  // last solve

  std::vector<Flow> flows_;
  std::unordered_map<int, double> job_bandwidth_;  // last solve
  NetworkStats stats_;
};

}  // namespace optimus

#endif  // SRC_NET_NETWORK_MODEL_H_
