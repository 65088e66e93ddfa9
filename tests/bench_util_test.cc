// The perf-bench harness in bench/bench_util.h: a child cell's row survives
// the CELL line bit for bit, and the repeat loop interleaves its rows and
// names the first repeat that does not reproduce.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace optimus {
namespace {

// A child row as bench_scale and bench_net build one: the shared columns,
// integer counts, doubles that need all 17 digits, and digests that a
// number parser would happily eat.
JsonObject ChildRow(uint64_t digest) {
  CellRun run;
  run.wall_s = 0.434095732;
  run.sim_s = 7199.798007321498;
  run.fp.trace_digest = digest;
  JsonObject row;
  SetPerfRow(&row, "10000x16000", run);
  row.Set("jobs", 10000);
  row.Set("completed", 6073);
  row.Set("avg_jct_s", 888.9244382132698);
  row.Set("schedule_s", 1.0 / 3.0);
  row.Set("net_max_link_util", 1e-300);
  row.Set("rack_aware", true);
  row.Set("peak_rss_mib", 210.69921875);
  return row;
}

TEST(CellLineTest, RowRoundTripsByteForByte) {
  for (const uint64_t digest :
       {0x1672044073f08d40ULL, 0x0000000000000042ULL, 0x00000000000e1000ULL}) {
    const JsonObject row = ChildRow(digest);
    const std::string line = CellLine(row);
    ASSERT_EQ(line.rfind("CELL ", 0), 0u) << line;
    ASSERT_EQ(line.back(), '\n');
    ASSERT_EQ(line.find('\n'), line.size() - 1) << "one line: " << line;

    JsonValue parsed;
    std::string why;
    ASSERT_TRUE(ParseCellLine(line, &parsed, &why)) << why;
    EXPECT_EQ(CellRow(parsed).ToString(), row.ToString());
    EXPECT_EQ(CellLine(CellRow(parsed)), line);

    const JsonValue* hex = parsed.Find("trace_digest");
    ASSERT_NE(hex, nullptr);
    ASSERT_TRUE(hex->is_string());
    EXPECT_EQ(hex->AsString(), DigestHex(digest));
    EXPECT_EQ(parsed.Find("cell")->AsString(), "10000x16000");
    EXPECT_EQ(parsed.Find("wall_s")->AsDouble(), 0.434095732);
    EXPECT_EQ(parsed.Find("avg_jct_s")->AsDouble(), 888.9244382132698);
  }
}

TEST(CellLineTest, SharedColumnsOpenTheRow) {
  const std::string line = CellLine(ChildRow(7));
  EXPECT_EQ(line.rfind("CELL {\"cell\":\"10000x16000\",\"wall_s\":", 0), 0u) << line;
  for (const char* key : {"\"sim_s\":", "\"sim_s_per_wall_s\":",
                          "\"trace_digest\":\"0000000000000007\""}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
  }
}

TEST(CellLineTest, RejectsLinesThatAreNotARow) {
  JsonValue parsed;
  std::string why;
  EXPECT_FALSE(ParseCellLine("{\"jobs\": 10000}\n", &parsed, &why));
  // The parent's old key=value line.
  EXPECT_FALSE(ParseCellLine("CELL jobs=10000 wall_s=0.529283\n", &parsed, &why));
  EXPECT_FALSE(ParseCellLine("CELL [1, 2]\n", &parsed, &why));
  EXPECT_FALSE(ParseCellLine("", &parsed, &why));
}

// A fake row: its fingerprint is its completed count, its wall time the call
// number.
CellRun FakeRun(int completed, double wall_s) {
  CellRun run;
  run.fp.metrics.completed_jobs = completed;
  run.wall_s = wall_s;
  return run;
}

TEST(RunRepeatsTest, InterleavesRowsAndKeepsEveryWallTime) {
  std::vector<size_t> order;
  std::vector<RepeatedRun> rows;
  std::string why;
  ASSERT_TRUE(RunRepeats({"a", "b", "c"}, 3, [&](size_t i) {
    order.push_back(i);
    return FakeRun(static_cast<int>(i), static_cast<double>(order.size()));
  }, &rows, &why)) << why;
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 0, 1, 2, 0, 1, 2}));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].wall_s, (std::vector<double>{2, 5, 8}));
  EXPECT_EQ(rows[2].run.fp.metrics.completed_jobs, 2);
  EXPECT_EQ(rows[2].run.wall_s, 3.0);
}

TEST(RunRepeatsTest, NamesTheFirstRepeatThatDiverges) {
  int calls = 0;
  std::vector<RepeatedRun> rows;
  std::string why;
  // Row "b" completes one more job on its second repeat.
  EXPECT_FALSE(RunRepeats({"a", "b"}, 3, [&](size_t i) {
    const int repeat = calls++ / 2;
    return FakeRun(i == 1 && repeat == 1 ? 11 : 10, 1.0);
  }, &rows, &why));
  EXPECT_EQ(calls, 6) << "every round still runs";
  EXPECT_NE(why.find("b repeat 1"), std::string::npos) << why;
  EXPECT_NE(why.find("completed_jobs"), std::string::npos) << why;
  EXPECT_EQ(rows[1].wall_s.size(), 3u);
}

}  // namespace
}  // namespace optimus
