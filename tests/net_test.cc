// Tests for the network fidelity subsystem (src/net/): fabric construction,
// per-job topology solves, max-min fair-share contention, and the ring
// all-reduce transfer term in the step-time model.

#include <gtest/gtest.h>

#include "src/models/model_zoo.h"
#include "src/net/network_model.h"
#include "src/pserver/comm_model.h"

namespace optimus {
namespace {

// 8 servers in racks of 4: links [0,8) are NICs, 8 and 9 the rack uplinks.
NetworkConfig FabricConfig(NetworkConfig::Model model, double oversubscription) {
  NetworkConfig config;
  config.model = model;
  config.nic_bps = 100.0;
  config.oversubscription = oversubscription;
  return config;
}

// One worker per listed server id; ids must be ascending (repeats stack).
JobPlacement WorkersOn(const std::vector<int>& servers) {
  JobPlacement placement;
  for (int s : servers) {
    if (placement.used_servers.empty() || placement.used_servers.back() != s) {
      placement.used_servers.push_back(s);
      placement.used_workers.push_back(0);
      placement.used_ps.push_back(0);
    }
    ++placement.used_workers.back();
  }
  return placement;
}

TEST(NetworkModelNameTest, RoundTripsAllModels) {
  for (const auto model :
       {NetworkConfig::Model::kFlat, NetworkConfig::Model::kTopology,
        NetworkConfig::Model::kContention}) {
    NetworkConfig::Model parsed;
    ASSERT_TRUE(ParseNetworkModelName(NetworkModelName(model), &parsed));
    EXPECT_EQ(parsed, model);
  }
  NetworkConfig::Model parsed;
  EXPECT_FALSE(ParseNetworkModelName("fat-tree", &parsed));
}

TEST(NetworkModelTest, FlatCreatesNoModel) {
  EXPECT_EQ(NetworkModel::Create(FabricConfig(NetworkConfig::Model::kFlat, 1.0),
                                 8, 4),
            nullptr);
  EXPECT_NE(NetworkModel::Create(
                FabricConfig(NetworkConfig::Model::kTopology, 1.0), 8, 4),
            nullptr);
}

TEST(NetworkModelTest, LinkCapacitiesFollowOversubscription) {
  // Uplink = rack_size * nic / oversubscription = 4 * 100 / 2 = 200.
  NetworkModel net(FabricConfig(NetworkConfig::Model::kTopology, 2.0), 8, 4);
  EXPECT_EQ(net.num_racks(), 2);
  EXPECT_EQ(net.stats().num_links, 10);
  for (int s = 0; s < 8; ++s) {
    EXPECT_DOUBLE_EQ(net.LinkCapacity(s), 100.0);
  }
  EXPECT_DOUBLE_EQ(net.LinkCapacity(8), 200.0);
  EXPECT_DOUBLE_EQ(net.LinkCapacity(9), 200.0);
}

TEST(NetworkModelTest, SingleRackJobNeverPaysTheUplink) {
  NetworkModel net(FabricConfig(NetworkConfig::Model::kTopology, 4.0), 8, 4);
  net.BeginRound();
  net.AddJob(1, WorkersOn({0, 1}));  // both servers in rack 0
  net.Solve();
  EXPECT_DOUBLE_EQ(net.BandwidthFor(1), 100.0);
}

TEST(NetworkModelTest, SingleServerJobEmitsNoFlows) {
  NetworkModel net(FabricConfig(NetworkConfig::Model::kTopology, 4.0), 8, 4);
  net.BeginRound();
  net.AddJob(1, WorkersOn({2, 2}));  // two workers, one server
  net.Solve();
  EXPECT_EQ(net.stats().flows, 0);
  EXPECT_DOUBLE_EQ(net.BandwidthFor(1), 100.0);  // NIC line rate
}

TEST(NetworkModelTest, TopologySplitsUplinkAcrossOwnFlows) {
  // 4:1 oversubscription: uplink = 4 * 100 / 4 = 100. A job with two servers
  // in rack 0 and one in rack 1 pushes two flows through uplink 8, so its
  // worst flow runs at 100 / 2 = 50.
  NetworkModel net(FabricConfig(NetworkConfig::Model::kTopology, 4.0), 8, 4);
  net.BeginRound();
  net.AddJob(1, WorkersOn({0, 1, 4}));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.BandwidthFor(1), 50.0);
}

TEST(NetworkModelTest, TopologyIgnoresOtherJobs) {
  // Per-job isolation: a second job over the same uplink does not change the
  // first job's solve.
  NetworkModel net(FabricConfig(NetworkConfig::Model::kTopology, 4.0), 8, 4);
  net.BeginRound();
  net.AddJob(1, WorkersOn({0, 4}));
  net.AddJob(2, WorkersOn({1, 5}));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.BandwidthFor(1), 100.0);
  EXPECT_DOUBLE_EQ(net.BandwidthFor(2), 100.0);
  EXPECT_EQ(net.stats().contended_flows, 0);
}

TEST(NetworkModelTest, ContentionSharesUplinkMaxMin) {
  // Two cross-rack jobs share each 100-capacity uplink (two flows apiece):
  // the max-min fair share is 50 per flow, and every flow sits below its
  // isolated rate.
  NetworkModel net(FabricConfig(NetworkConfig::Model::kContention, 4.0), 8, 4);
  net.BeginRound();
  net.AddJob(1, WorkersOn({0, 4}));
  net.AddJob(2, WorkersOn({1, 5}));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.BandwidthFor(1), 50.0);
  EXPECT_DOUBLE_EQ(net.BandwidthFor(2), 50.0);
  EXPECT_EQ(net.stats().flows, 4);
  EXPECT_EQ(net.stats().contended_flows, 4);
  // Both uplinks are saturated: 2 flows x 50 over capacity 100.
  EXPECT_DOUBLE_EQ(net.stats().max_link_utilization, 1.0);
}

TEST(NetworkModelTest, ContentionLeavesSoloJobAtIsolatedRate) {
  // One cross-rack job alone on the fabric: max-min gives it the full
  // min(nic, uplink) = 100 with no contention counted.
  NetworkModel net(FabricConfig(NetworkConfig::Model::kContention, 4.0), 8, 4);
  net.BeginRound();
  net.AddJob(1, WorkersOn({0, 4}));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.BandwidthFor(1), 100.0);
  EXPECT_EQ(net.stats().contended_flows, 0);
}

TEST(NetworkModelTest, ContentionSolveIsDeterministic) {
  auto run = [] {
    NetworkModel net(FabricConfig(NetworkConfig::Model::kContention, 4.0), 8,
                     4);
    net.BeginRound();
    net.AddJob(1, WorkersOn({0, 1, 4}));
    net.AddJob(2, WorkersOn({1, 5}));
    net.AddJob(3, WorkersOn({2, 3}));
    net.Solve();
    return std::vector<double>{net.BandwidthFor(1), net.BandwidthFor(2),
                               net.BandwidthFor(3)};
  };
  EXPECT_EQ(run(), run());
}

TEST(NetworkModelTest, ResolvingARoundReproducesTheSolve) {
  NetworkModel net(FabricConfig(NetworkConfig::Model::kContention, 4.0), 8, 4);
  std::vector<double> first;
  for (int round = 0; round < 2; ++round) {
    net.BeginRound();
    net.AddJob(1, WorkersOn({0, 4}));
    net.AddJob(2, WorkersOn({1, 5}));
    net.Solve();
    const std::vector<double> bw = {net.BandwidthFor(1), net.BandwidthFor(2)};
    if (round == 0) {
      first = bw;
    } else {
      EXPECT_EQ(bw, first);
    }
  }
  EXPECT_EQ(net.stats().solves, 2);
}

TEST(NetworkModelTest, NoRackPartitionMeansNicsOnly) {
  // rack_size <= 0: one non-blocking switch; cross-server jobs only ever see
  // their NICs.
  NetworkModel net(FabricConfig(NetworkConfig::Model::kContention, 1.0), 8, 0);
  EXPECT_EQ(net.num_racks(), 0);
  EXPECT_EQ(net.stats().num_links, 8);
  net.BeginRound();
  net.AddJob(1, WorkersOn({0, 7}));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.BandwidthFor(1), 100.0);
}

TEST(NetworkModelTest, ServerWeightReflectsPathUtilization) {
  NetworkModel net(FabricConfig(NetworkConfig::Model::kContention, 4.0), 8, 4);
  net.BeginRound();
  net.Solve();
  // Idle fabric: full weight everywhere.
  EXPECT_DOUBLE_EQ(net.ServerWeight(0), 1.0);

  net.BeginRound();
  net.AddJob(1, WorkersOn({0, 4}));
  net.AddJob(2, WorkersOn({1, 5}));
  net.Solve();
  // Rack-0 uplink is saturated; every rack-0 server's path is penalized,
  // including server 2 which hosts no task.
  EXPECT_LT(net.ServerWeight(2), 0.01);
  EXPECT_GT(net.ServerWeight(2), 0.0);
}

// ---------------------------------------------------------------------------
// Ring all-reduce in the step-time model.
// ---------------------------------------------------------------------------

class AllReduceStepTimeTest : public ::testing::Test {
 protected:
  StepTimeInputs Inputs(int w) {
    StepTimeInputs in;
    in.model = &FindModel("ResNet-50");
    in.mode = TrainingMode::kSync;
    in.comm = CommMode::kAllReduce;
    in.num_ps = 0;
    in.num_workers = w;
    return in;
  }
  CommConfig config_;
};

TEST_F(AllReduceStepTimeTest, TransferMatchesRingFormula) {
  // T_transfer = 2 (w-1)/w * S / B with the flat Eqn-2 constant.
  StepTimeInputs in = Inputs(4);
  const StepTimeBreakdown b = ComputeStepTime(in, config_);
  const double s_bytes = static_cast<double>(in.model->ParamBytes());
  EXPECT_NEAR(b.transfer_s,
              2.0 * 3.0 / 4.0 * s_bytes / config_.container_bandwidth_bps,
              1e-9);
}

TEST_F(AllReduceStepTimeTest, NoPsTermsAndBreakdownSums) {
  StepTimeInputs in = Inputs(4);
  const StepTimeBreakdown b = ComputeStepTime(in, config_);
  EXPECT_DOUBLE_EQ(b.update_s, 0.0);
  EXPECT_NEAR(b.total_s,
              b.forward_s + b.backward_s + b.transfer_s + b.overhead_s, 1e-12);
}

TEST_F(AllReduceStepTimeTest, SingleWorkerRingNeverTransfers) {
  StepTimeInputs in = Inputs(1);
  EXPECT_DOUBLE_EQ(ComputeStepTime(in, config_).transfer_s, 0.0);
}

TEST_F(AllReduceStepTimeTest, SingleServerRingNeverTransfers) {
  const JobPlacement placement = {.used_servers = {0}, .used_workers = {4}, .used_ps = {0}};
  StepTimeInputs in = Inputs(4);
  in.placement = &placement;
  EXPECT_DOUBLE_EQ(ComputeStepTime(in, config_).transfer_s, 0.0);
}

TEST_F(AllReduceStepTimeTest, NetworkBandwidthOverrideScalesTransfer) {
  StepTimeInputs flat = Inputs(4);
  StepTimeInputs fabric = Inputs(4);
  fabric.net_bw_bps = 2.0 * config_.container_bandwidth_bps;
  EXPECT_NEAR(ComputeStepTime(fabric, config_).transfer_s,
              0.5 * ComputeStepTime(flat, config_).transfer_s, 1e-12);
}

TEST_F(AllReduceStepTimeTest, WiderRingsTransferMoreBytes) {
  // 2(w-1)/w grows with w: an 8-worker ring moves more of the model per step
  // than a 2-worker ring at equal bandwidth.
  EXPECT_GT(ComputeStepTime(Inputs(8), config_).transfer_s,
            ComputeStepTime(Inputs(2), config_).transfer_s);
}

}  // namespace
}  // namespace optimus
