#include <algorithm>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/models/model_zoo.h"
#include "src/models/param_blocks.h"
#include "src/pserver/block_assignment.h"
#include "src/pserver/comm_model.h"

namespace optimus {
namespace {

ParamBlockSizes ResNetBlocks() { return GenerateParamBlocks(FindModel("ResNet-50")); }

TEST(MxnetAssignerTest, SlicesLargeBlocksAcrossAllPs) {
  ParamBlockSizes blocks = {2000000, 500};
  Rng rng(1);
  BlockAssignment a = MxnetAssigner(1000000).Assign(blocks, 4, &rng);
  // Large block => 4 slices; small block => 1 slice.
  EXPECT_EQ(a.slices.size(), 5u);
  int64_t big_total = 0;
  for (const BlockSlice& s : a.slices) {
    if (s.block_id == 0) {
      big_total += s.size;
    }
  }
  EXPECT_EQ(big_total, 2000000);
}

TEST(MxnetAssignerTest, PreservesTotalParams) {
  const ParamBlockSizes blocks = ResNetBlocks();
  Rng rng(2);
  BlockAssignment a = MxnetAssigner().Assign(blocks, 10, &rng);
  int64_t total = 0;
  for (const BlockSlice& s : a.slices) {
    total += s.size;
  }
  EXPECT_EQ(total, FindModel("ResNet-50").TotalParams());
}

TEST(MxnetAssignerTest, ResNet50Produces247Requests) {
  // Table 3: MXNet's default rule on ResNet-50 with 10 PSes issues 247
  // parameter-update requests (157 blocks, 10 of them sliced tenfold).
  const ParamBlockSizes blocks = ResNetBlocks();
  Rng rng(3);
  BlockAssignment a = MxnetAssigner().Assign(blocks, 10, &rng);
  PsLoadMetrics m = ComputeLoadMetrics(a);
  EXPECT_EQ(m.total_requests, 247);
}

TEST(MxnetAssignerTest, SinglePsKeepsBlocksWhole) {
  const ParamBlockSizes blocks = ResNetBlocks();
  Rng rng(4);
  BlockAssignment a = MxnetAssigner().Assign(blocks, 1, &rng);
  EXPECT_EQ(a.slices.size(), blocks.size());
  for (const BlockSlice& s : a.slices) {
    EXPECT_EQ(s.ps, 0);
  }
}

TEST(PaaAssignerTest, ResNet50MinimalRequestsAndTightBalance) {
  // Table 3: PAA keeps all 157 blocks whole (157 requests), parameter-size
  // difference ~0.1M and request-count difference ~1.
  const ParamBlockSizes blocks = ResNetBlocks();
  BlockAssignment a = PaaAssigner().Assign(blocks, 10);
  PsLoadMetrics m = ComputeLoadMetrics(a);
  EXPECT_EQ(m.total_requests, 157);
  // Paper reports 0.1M size diff and request diff of 1 on the real ResNet-50
  // block sizes; our synthetic blocks are coarser, so allow 0.5M (2% of the
  // model, still ~10x tighter than the MXNet baseline's 3.6M).
  EXPECT_LE(m.param_size_diff, 500000);
  EXPECT_LE(m.request_count_diff, 2);
}

TEST(PaaAssignerTest, BeatsMxnetOnAllThreeMetrics) {
  const ParamBlockSizes blocks = ResNetBlocks();
  Rng rng(5);
  PsLoadMetrics mx = ComputeLoadMetrics(MxnetAssigner().Assign(blocks, 10, &rng));
  PsLoadMetrics paa = ComputeLoadMetrics(PaaAssigner().Assign(blocks, 10));
  EXPECT_LT(paa.param_size_diff, mx.param_size_diff);
  EXPECT_LE(paa.request_count_diff, mx.request_count_diff);
  EXPECT_LE(paa.total_requests, mx.total_requests);
}

TEST(PaaAssignerTest, SlicesBlocksLargerThanAverage) {
  // One giant block with 4 PSes must be sliced into avg-size partitions.
  ParamBlockSizes blocks = {1000, 4000000, 2000};
  BlockAssignment a = PaaAssigner().Assign(blocks, 4);
  int big_slices = 0;
  for (const BlockSlice& s : a.slices) {
    if (s.block_id == 1) {
      ++big_slices;
    }
  }
  EXPECT_GE(big_slices, 4);
  PsLoadMetrics m = ComputeLoadMetrics(a);
  // Every PS should hold a nearly equal share.
  EXPECT_LT(static_cast<double>(m.param_size_diff),
            0.05 * (1000 + 4000000 + 2000));
}

TEST(PaaAssignerTest, PreservesTotalParamsProperty) {
  // Property sweep across models and PS counts.
  for (const ModelSpec& spec : GetModelZoo()) {
    const ParamBlockSizes blocks = GenerateParamBlocks(spec);
    for (int p : {1, 2, 5, 10, 20}) {
      SCOPED_TRACE(spec.name + " p=" + std::to_string(p));
      BlockAssignment a = PaaAssigner().Assign(blocks, p);
      int64_t total = 0;
      for (const BlockSlice& s : a.slices) {
        total += s.size;
        EXPECT_GE(s.ps, 0);
        EXPECT_LT(s.ps, p);
        EXPECT_GT(s.size, 0);
      }
      EXPECT_EQ(total, spec.TotalParams());
    }
  }
}

TEST(PaaAssignerTest, TieOrderMatchesStableSort) {
  // PAA processes blocks by size descending, ties by block id: a block's
  // slices are consecutive, so the block ids in the slices, with repeats
  // collapsed, are exactly a stable sort of the ids by size. Few distinct
  // sizes make long runs of ties in every size class (tiny, mid, sliced).
  Rng rng(29);
  const std::vector<int64_t> sizes = {1, 2, 3, 50, 400, 5000, 90000};
  for (int trial = 0; trial < 40; ++trial) {
    ParamBlockSizes blocks(static_cast<size_t>(rng.UniformInt(1, 160)));
    for (int64_t& b : blocks) {
      b = sizes[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(sizes.size()) - 1))];
    }
    std::vector<int> expected(blocks.size());
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](int a, int b) { return blocks[a] > blocks[b]; });
    EXPECT_EQ(PaaBlockOrder(blocks), expected) << "trial " << trial;
    for (int p : {1, 3, 10, 32}) {
      std::vector<double> weights(static_cast<size_t>(p));
      for (double& w : weights) {
        w = rng.Uniform(0.5, 2.0);
      }
      for (const std::vector<double>* w : {static_cast<const std::vector<double>*>(nullptr),
                                           static_cast<const std::vector<double>*>(&weights)}) {
        SCOPED_TRACE("trial=" + std::to_string(trial) + " p=" + std::to_string(p) +
                     (w != nullptr ? " weighted" : ""));
        const BlockAssignment a = PaaAssigner().Assign(blocks, p, w);
        std::vector<int> seen;
        for (const BlockSlice& s : a.slices) {
          if (seen.empty() || seen.back() != s.block_id) {
            seen.push_back(s.block_id);
          }
        }
        EXPECT_EQ(seen, expected);
      }
    }
  }
}

void ExpectSameLoad(const PsLoadMetrics& got, const PsLoadMetrics& want) {
  EXPECT_EQ(got.param_size_diff, want.param_size_diff);
  EXPECT_EQ(got.request_count_diff, want.request_count_diff);
  EXPECT_EQ(got.total_requests, want.total_requests);
  EXPECT_EQ(got.max_ps_params, want.max_ps_params);
  EXPECT_EQ(got.max_param_fraction, want.max_param_fraction);
}

TEST(PaaLoadTableTest, MatchesAFreshAssignmentForEveryZooModel) {
  // Every unweighted entry equals a fresh PaaAssigner's metrics field for
  // field, both when it is filled (p = 32 down to 1, so the first fill sizes
  // the table) and when it is read back. A weighted load between the reads
  // is recomputed and leaves the table as it was.
  Rng rng(31);
  for (const ModelSpec& spec : GetModelZoo()) {
    const ParamBlockSizes blocks = GenerateParamBlocks(spec);
    PaaLoadTable table(blocks);
    EXPECT_EQ(table.blocks(), blocks);
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < 32; ++i) {
        const int p = pass == 0 ? 32 - i : i + 1;
        SCOPED_TRACE(spec.name + " p=" + std::to_string(p) + " pass " + std::to_string(pass));
        ExpectSameLoad(table.Load(p), ComputeLoadMetrics(PaaAssigner().Assign(blocks, p)));
        std::vector<double> weights(static_cast<size_t>(p));
        for (double& w : weights) {
          w = rng.Uniform(0.25, 1.0);
        }
        ExpectSameLoad(table.Load(p, &weights),
                       ComputeLoadMetrics(PaaAssigner().Assign(blocks, p, &weights)));
      }
    }
  }
}

TEST(PaaLoadTableTest, EqualWeightsMatchAFreshWeightedAssignment) {
  // All-equal weights read the unweighted entry. That is exact only if a
  // fresh weighted assignment with those weights equals the unweighted one,
  // so check both, for weights near 1, far below 1 (the network model's
  // floor) and one ulp-scale step below 1. One differing weight takes the
  // weighted path, which must still match a fresh assignment.
  for (const ModelSpec& spec : GetModelZoo()) {
    const ParamBlockSizes blocks = GenerateParamBlocks(spec);
    PaaLoadTable table(blocks);
    for (const double common : {1.0, 0.5, 1e-6, 1.0 - 0x1p-40}) {
      for (int p = 1; p <= 32; ++p) {
        SCOPED_TRACE(spec.name + " p=" + std::to_string(p) +
                     " w=" + std::to_string(common));
        std::vector<double> weights(static_cast<size_t>(p), common);
        const PsLoadMetrics weighted =
            ComputeLoadMetrics(PaaAssigner().Assign(blocks, p, &weights));
        ExpectSameLoad(table.Load(p, &weights), weighted);
        ExpectSameLoad(weighted, ComputeLoadMetrics(PaaAssigner().Assign(blocks, p)));
        if (p > 1) {
          weights[static_cast<size_t>(p / 2)] = common * 0.75;
          ExpectSameLoad(table.Load(p, &weights),
                         ComputeLoadMetrics(PaaAssigner().Assign(blocks, p, &weights)));
        }
      }
    }
  }
}

TEST(PaaAssignerTest, BalanceImprovesOrMatchesMxnetAcrossZoo) {
  // MXNet's random small-block placement is noisy, so compare PAA against the
  // MXNet average over several seeds: PAA's worst-PS share must not exceed
  // MXNet's expected worst-PS share, and PAA never issues more requests.
  for (const ModelSpec& spec : GetModelZoo()) {
    const ParamBlockSizes blocks = GenerateParamBlocks(spec);
    for (int p : {4, 10}) {
      SCOPED_TRACE(spec.name + " p=" + std::to_string(p));
      double mx_frac_sum = 0.0;
      int64_t mx_requests = 0;
      const int kSeeds = 10;
      for (int seed = 0; seed < kSeeds; ++seed) {
        Rng rng(100 + seed);
        PsLoadMetrics mx = ComputeLoadMetrics(MxnetAssigner().Assign(blocks, p, &rng));
        mx_frac_sum += mx.max_param_fraction;
        mx_requests = mx.total_requests;
      }
      PsLoadMetrics paa = ComputeLoadMetrics(PaaAssigner().Assign(blocks, p));
      EXPECT_LE(paa.max_param_fraction, mx_frac_sum / kSeeds + 0.005);
      // PAA issues the minimum number of requests compatible with its
      // slicing rule: one per block, plus the slices forced by blocks larger
      // than the average per-PS size. (MXNet can issue fewer requests only by
      // leaving oversized sub-threshold blocks whole, i.e. unbalanced.)
      const int64_t total =
          std::accumulate(blocks.begin(), blocks.end(), int64_t{0});
      const int64_t part_size =
          std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(total) / p));
      int64_t minimal_requests = 0;
      for (int64_t b : blocks) {
        minimal_requests += (b + part_size - 1) / part_size;
      }
      EXPECT_EQ(paa.total_requests, minimal_requests);
      (void)mx_requests;
    }
  }
}

TEST(JobPlacementTest, CompactFormCountsAndIterates) {
  // Totals and iteration come from the parallel used_* arrays.
  JobPlacement placement;
  placement.used_servers = {3, 7};
  placement.used_workers = {2, 1};
  placement.used_ps = {0, 1};
  EXPECT_FALSE(placement.empty());
  EXPECT_EQ(placement.TotalWorkers(), 3);
  EXPECT_EQ(placement.TotalPs(), 1);
  std::vector<std::tuple<size_t, int, int>> visited;
  placement.ForEachUsed([&](size_t s, int w, int p) {
    visited.emplace_back(s, w, p);
  });
  const std::vector<std::tuple<size_t, int, int>> expected = {{3, 2, 0},
                                                              {7, 1, 1}};
  EXPECT_EQ(visited, expected);
}

TEST(JobPlacementTest, EmptyPlacementHasZeroTotals) {
  const JobPlacement placement;
  EXPECT_TRUE(placement.empty());
  EXPECT_EQ(placement.TotalWorkers(), 0);
  EXPECT_EQ(placement.TotalPs(), 0);
  int visits = 0;
  placement.ForEachUsed([&](size_t, int, int) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(LoadMetricsTest, BalancedHelper) {
  PsLoadMetrics m = BalancedLoadMetrics(1000, 4, 20);
  EXPECT_EQ(m.max_ps_params, 250);
  EXPECT_DOUBLE_EQ(m.max_param_fraction, 0.25);
  EXPECT_EQ(m.total_requests, 20);
  EXPECT_EQ(m.param_size_diff, 0);
}

class CommModelTest : public ::testing::Test {
 protected:
  StepTimeInputs BaseInputs(TrainingMode mode, int p, int w) {
    StepTimeInputs in;
    in.model = &FindModel("ResNet-50");
    in.mode = mode;
    in.num_ps = p;
    in.num_workers = w;
    return in;
  }
  CommConfig config_;
};

TEST_F(CommModelTest, BreakdownSumsToTotal) {
  StepTimeInputs in = BaseInputs(TrainingMode::kSync, 4, 4);
  StepTimeBreakdown b = ComputeStepTime(in, config_);
  EXPECT_NEAR(b.total_s,
              b.forward_s + b.backward_s + b.transfer_s + b.update_s + b.overhead_s,
              1e-12);
  EXPECT_GT(b.total_s, 0.0);
}

TEST_F(CommModelTest, MorePsReducesTransferTime) {
  StepTimeInputs in4 = BaseInputs(TrainingMode::kSync, 4, 8);
  StepTimeInputs in8 = BaseInputs(TrainingMode::kSync, 8, 8);
  EXPECT_GT(ComputeStepTime(in4, config_).transfer_s,
            ComputeStepTime(in8, config_).transfer_s);
}

TEST_F(CommModelTest, SyncSpeedEventuallyDropsWithTooManyWorkers) {
  // Fig 4(b)/9(c): with p fixed, adding workers first helps then hurts.
  std::vector<double> speeds;
  for (int w = 2; w <= 40; w += 2) {
    StepTimeInputs in = BaseInputs(TrainingMode::kSync, 12, w);
    speeds.push_back(TrainingSpeed(in, config_));
  }
  const auto peak = std::max_element(speeds.begin(), speeds.end());
  EXPECT_NE(peak, speeds.begin());  // adding some workers helped
  EXPECT_NE(peak, speeds.end() - 1);  // too many workers hurt
}

TEST_F(CommModelTest, AsyncSpeedScalesSublinearly) {
  StepTimeInputs in1 = BaseInputs(TrainingMode::kAsync, 8, 4);
  StepTimeInputs in2 = BaseInputs(TrainingMode::kAsync, 8, 8);
  const double s1 = TrainingSpeed(in1, config_);
  const double s2 = TrainingSpeed(in2, config_);
  EXPECT_GT(s2, s1);            // more workers => more aggregate steps/s
  EXPECT_LT(s2, 2.0 * s1);      // but sublinear (diminishing returns)
}

TEST_F(CommModelTest, ImbalanceSlowsTraining) {
  StepTimeInputs balanced = BaseInputs(TrainingMode::kSync, 10, 10);
  StepTimeInputs imbalanced = BaseInputs(TrainingMode::kSync, 10, 10);
  imbalanced.load = BalancedLoadMetrics(imbalanced.model->TotalParams(), 10,
                                        imbalanced.model->num_param_blocks);
  imbalanced.load.max_param_fraction = 0.25;  // one PS holds 2.5x its share
  imbalanced.load_valid = true;
  EXPECT_LT(TrainingSpeed(imbalanced, config_), TrainingSpeed(balanced, config_));
}

TEST_F(CommModelTest, SlicingInflatesOverhead) {
  StepTimeInputs sliced = BaseInputs(TrainingMode::kSync, 10, 10);
  sliced.load =
      BalancedLoadMetrics(sliced.model->TotalParams(), 10, sliced.model->num_param_blocks);
  sliced.load.total_requests = sliced.model->num_param_blocks * 3;
  sliced.load_valid = true;
  StepTimeInputs whole = BaseInputs(TrainingMode::kSync, 10, 10);
  EXPECT_GT(ComputeStepTime(sliced, config_).overhead_s,
            ComputeStepTime(whole, config_).overhead_s);
}

TEST_F(CommModelTest, ColocationReducesTransferTime) {
  // Fig 10: packing workers with their PSes on few servers beats spreading.
  const JobPlacement spread_placement = {
      .used_servers = {0, 1, 2}, .used_workers = {0, 2, 2}, .used_ps = {2, 0, 0}};
  StepTimeInputs spread = BaseInputs(TrainingMode::kSync, 2, 4);
  spread.placement = &spread_placement;

  const JobPlacement packed_placement = {
      .used_servers = {0, 1}, .used_workers = {2, 2}, .used_ps = {1, 1}};
  StepTimeInputs packed = BaseInputs(TrainingMode::kSync, 2, 4);
  packed.placement = &packed_placement;

  EXPECT_LT(ComputeStepTime(packed, config_).transfer_s,
            ComputeStepTime(spread, config_).transfer_s);
}

TEST_F(CommModelTest, SingleServerPlacementHasZeroTransfer) {
  const JobPlacement placement = {.used_servers = {0}, .used_workers = {2}, .used_ps = {2}};
  StepTimeInputs in = BaseInputs(TrainingMode::kSync, 2, 2);
  in.placement = &placement;
  EXPECT_DOUBLE_EQ(ComputeStepTime(in, config_).transfer_s, 0.0);
}

TEST_F(CommModelTest, StragglerSlowsComputeTerms) {
  StepTimeInputs healthy = BaseInputs(TrainingMode::kSync, 4, 4);
  StepTimeInputs straggling = BaseInputs(TrainingMode::kSync, 4, 4);
  straggling.slowest_worker_factor = 0.5;
  StepTimeBreakdown h = ComputeStepTime(healthy, config_);
  StepTimeBreakdown s = ComputeStepTime(straggling, config_);
  EXPECT_NEAR(s.forward_s, 2.0 * h.forward_s, 1e-12);
  EXPECT_NEAR(s.backward_s, 2.0 * h.backward_s, 1e-12);
  EXPECT_DOUBLE_EQ(s.transfer_s, h.transfer_s);
}

TEST_F(CommModelTest, Fig10PlacementExampleOrdering) {
  // The three placements of Fig 10 (2 PS, 4 workers, 3 servers): (c) packs
  // onto 2 servers with equal PS/worker counts and must beat (a) and (b).
  auto transfer = [&](std::vector<int> servers, std::vector<int> workers,
                      std::vector<int> ps) {
    const JobPlacement placement = {.used_servers = std::move(servers),
                                    .used_workers = std::move(workers),
                                    .used_ps = std::move(ps)};
    StepTimeInputs in = BaseInputs(TrainingMode::kSync, 2, 4);
    in.placement = &placement;
    return ComputeStepTime(in, config_).transfer_s;
  };
  const double a = transfer({0, 1, 2}, {1, 2, 1}, {1, 0, 1});  // 3-server spread
  const double b = transfer({0, 1, 2}, {2, 1, 1}, {0, 1, 1});  // another spread
  const double c = transfer({0, 1}, {2, 2}, {1, 1});           // packed, even split
  EXPECT_LE(c, a);
  EXPECT_LE(c, b);
}

TEST_F(CommModelTest, EqnTwoRegimeMatchesHandComputation) {
  // Pure cross-server sync training: T_transfer = 2*(S/p)*w/B.
  const ModelSpec& model = FindModel("ResNet-50");
  StepTimeInputs in = BaseInputs(TrainingMode::kSync, 5, 10);
  StepTimeBreakdown b = ComputeStepTime(in, config_);
  const double s_bytes = static_cast<double>(model.ParamBytes());
  const double expected_ps_side =
      2.0 * (s_bytes / 5.0) * 10.0 / config_.container_bandwidth_bps;
  const double expected_worker_side = 2.0 * s_bytes / config_.container_bandwidth_bps;
  EXPECT_NEAR(b.transfer_s, std::max(expected_ps_side, expected_worker_side), 1e-9);
}

}  // namespace
}  // namespace optimus
