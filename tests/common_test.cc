#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace optimus {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform(0, 1) == b.Uniform(0, 1)) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, SplitIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng c1 = parent.Split(1);
  Rng c1_again = Rng(7).Split(1);
  EXPECT_DOUBLE_EQ(c1.Uniform(0, 1), c1_again.Uniform(0, 1));
  // Children of different streams should diverge.
  Rng c1b = Rng(7).Split(1);
  Rng c2b = Rng(7).Split(2);
  EXPECT_NE(c1b.Uniform(0, 1), c2b.Uniform(0, 1));
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(4);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, LogNormalFactorIsPositiveWithMedianNearOne) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double f = rng.LogNormalFactor(0.1);
    EXPECT_GT(f, 0.0);
    samples.push_back(f);
  }
  EXPECT_NEAR(Median(samples), 1.0, 0.02);
}

TEST(RngTest, LogNormalFactorSigmaZeroIsIdentity) {
  Rng rng(6);
  EXPECT_DOUBLE_EQ(rng.LogNormalFactor(0.0), 1.0);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Rng rng(8);
  RunningStat stat;
  for (int i = 0; i < 5000; ++i) {
    stat.Add(static_cast<double>(rng.Poisson(3.0)));
  }
  EXPECT_NEAR(stat.mean(), 3.0, 0.15);
}

TEST(RunningStatTest, MatchesBatchStatistics) {
  RunningStat stat;
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double v : values) {
    stat.Add(v);
  }
  EXPECT_EQ(stat.count(), 5u);
  EXPECT_DOUBLE_EQ(stat.mean(), Mean(values));
  EXPECT_NEAR(stat.stddev(), StdDev(values), 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 10.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 20.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 5.0);
}

TEST(StatsTest, EmptyVectorsAreSafe) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
}

TEST(TablePrinterTest, AlignsColumnsAndCountsRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "2.5"});
  EXPECT_EQ(table.num_rows(), 2u);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 3), "2.000");
}

// AppendDouble17 is specified as printf("%.17g") in the C locale; pin it byte
// for byte on the edges of the double format. EncodeJsonDouble shares it and
// spells non-finite values as JSON null.
TEST(JsonWriterTest, AppendDouble17MatchesPrintfG17) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double inputs[] = {
      0x0p+0,                   // 0
      -0x0p+0,                  // -0.0
      0x1p+0,                   // 1
      0x1.5p+5,                 // 42
      0x1.999999999999ap-4,     // 0.1
      0x1.5555555555555p-2,     // 1.0 / 3
      0x1p+53,                  // 2^53 (2^53 + 1 rounds to it)
      0x1.0000000000001p+53,    // 2^53 + 2, the next double up
      0x1.b1ae4d6e2ef5p+69,     // 1e21
      0x1.ad7f29abcaf48p-24,    // 1e-7
      0x1p-1074,                // minimum subnormal
      0x1.fffffffffffffp+1023,  // DBL_MAX
      -0x1.1eb2d66005835p+997,  // -1.5e300
      kNaN,
      -kNaN,
      kInf,
      -kInf,
  };
  for (const double v : inputs) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    std::string got = "prefix:";
    AppendDouble17(v, &got);
    EXPECT_EQ(got, std::string("prefix:") + buf);
    EXPECT_EQ(EncodeJsonDouble(v), std::isfinite(v) ? std::string(buf) : "null")
        << buf;
  }
}

}  // namespace
}  // namespace optimus
