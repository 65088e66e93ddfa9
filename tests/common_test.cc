#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

// EncodeJsonString as it was before the bulk-run encoder, one char at a time:
// the reference the fast path must match byte for byte.
std::string PerCharEncodeJsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

// Seeded strings in four flavours: long unescaped runs, dense quote/newline
// text, arbitrary bytes (>= 0x80 and every control byte), and a mix.
std::string RandomJsonText(Rng* rng) {
  const int flavour = static_cast<int>(rng->UniformInt(0, 3));
  const size_t length = static_cast<size_t>(rng->UniformInt(0, flavour == 0 ? 4000 : 300));
  const std::string dense = "\"\"\n\\\t\r a";
  std::string s;
  for (size_t i = 0; i < length; ++i) {
    switch (flavour) {
      case 0:
        s += rng->Bernoulli(0.002) ? '"' : static_cast<char>(rng->UniformInt(0x20, 0x7e));
        break;
      case 1:
        s += dense[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(dense.size()) - 1))];
        break;
      case 2:
        s += static_cast<char>(rng->UniformInt(0, 255));
        break;
      default:
        s += rng->Bernoulli(0.3) ? dense[static_cast<size_t>(rng->UniformInt(0, 7))]
                                 : static_cast<char>(rng->UniformInt(0x20, 0xff));
    }
  }
  return s;
}

TEST(JsonWriterTest, EncodeJsonStringMatchesPerCharEncoder) {
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(EncodeJsonString(one), PerCharEncodeJsonString(one)) << "byte " << b;
  }
  EXPECT_EQ(EncodeJsonString(""), "\"\"");
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string s = RandomJsonText(&rng);
    ASSERT_EQ(EncodeJsonString(s), PerCharEncodeJsonString(s)) << "trial " << trial;
  }
}

// ToCompactString copies string tokens verbatim and compacts composites; the
// reference is the per-entry form it replaced,
// "{" + EncodeJsonString(k) + ":" + CompactJson(v) joined by ",", over the
// encoded values each Set makes.
TEST(JsonWriterTest, ToCompactStringMatchesPerEntryCompaction) {
  const auto indent_under_key = [](const std::string& encoded) {
    std::string out;
    for (char c : encoded) {
      out += c;
      if (c == '\n') {
        out += "  ";
      }
    }
    return out;
  };
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out = "[";
    for (size_t i = 0; i < parts.size(); ++i) {
      out += (i > 0 ? ", " : "") + parts[i];
    }
    return out + "]";
  };
  const std::vector<std::string> fixed = {
      "with spaces  inside", "esc \"quoted\" text", "back\\slash \\\" mix",
      "{\"looks\": [\"like\", json]}", "", " ", "\"", "lines\n\tand\r\x01"};

  Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    JsonObject obj;
    std::vector<std::pair<std::string, std::string>> encoded;  // key -> Set's encoding
    const int n = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < n; ++i) {
      const std::string key = i % 4 == 3 ? "k \"" + std::to_string(i) + "\"\n" : "k" + std::to_string(i);
      const std::string text = rng.Bernoulli(0.5)
                                   ? fixed[static_cast<size_t>(rng.UniformInt(0, 7))]
                                   : RandomJsonText(&rng);
      const double x = rng.Uniform(-1e6, 1e6);
      JsonObject nested;
      nested.Set("name", text);
      nested.Set("x", x);
      nested.Set("tags", std::vector<std::string>{text, "t"});
      switch (rng.UniformInt(0, 8)) {
        case 0:
          obj.Set(key, text);
          encoded.emplace_back(key, PerCharEncodeJsonString(text));
          break;
        case 1:
          obj.Set(key, text.c_str());
          encoded.emplace_back(key, PerCharEncodeJsonString(text.c_str()));
          break;
        case 2:
          obj.Set(key, x);
          encoded.emplace_back(key, EncodeJsonDouble(x));
          break;
        case 3:
          obj.Set(key, static_cast<int64_t>(x));
          encoded.emplace_back(key, std::to_string(static_cast<int64_t>(x)));
          break;
        case 4:
          obj.Set(key, x > 0);
          encoded.emplace_back(key, x > 0 ? "true" : "false");
          break;
        case 5: {
          JsonObject outer;
          outer.Set("inner", nested);
          outer.Set("note", text);
          obj.Set(key, outer);
          encoded.emplace_back(key, outer.ToString(0));
          break;
        }
        case 6:
          obj.Set(key, std::vector<std::string>{text, "b c", "\"d\""});
          encoded.emplace_back(key, join({PerCharEncodeJsonString(text),
                                          PerCharEncodeJsonString("b c"),
                                          PerCharEncodeJsonString("\"d\"")}));
          break;
        case 7:
          obj.Set(key, std::vector<double>{x, 0.1, -2.0});
          encoded.emplace_back(key, join({EncodeJsonDouble(x), EncodeJsonDouble(0.1),
                                          EncodeJsonDouble(-2.0)}));
          break;
        default: {
          obj.Set(key, std::vector<JsonObject>{nested, JsonObject{}, nested});
          const std::string item = "  " + indent_under_key(nested.ToString(0));
          encoded.emplace_back(key, "[\n" + item + ",\n  {},\n" + item + "\n]");
          break;
        }
      }
    }
    std::string expected = "{";
    for (size_t i = 0; i < encoded.size(); ++i) {
      expected += (i > 0 ? "," : "") + PerCharEncodeJsonString(encoded[i].first) + ":" +
                  CompactJson(encoded[i].second);
    }
    expected += "}";
    ASSERT_EQ(obj.ToCompactString(), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace optimus
