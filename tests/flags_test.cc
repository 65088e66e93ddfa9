#include <gtest/gtest.h>

#include "src/common/flags.h"

namespace optimus {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, KeyEqualsValue) {
  FlagParser flags = Parse({"--jobs=12", "--policy=drf"});
  EXPECT_EQ(flags.GetInt("jobs", 0), 12);
  EXPECT_EQ(flags.GetString("policy", ""), "drf");
}

TEST(FlagParserTest, KeySpaceValue) {
  FlagParser flags = Parse({"--jobs", "7"});
  EXPECT_EQ(flags.GetInt("jobs", 0), 7);
}

TEST(FlagParserTest, BareBooleanAndNegation) {
  FlagParser flags = Parse({"--oracle", "--no-timeline"});
  EXPECT_TRUE(flags.GetBool("oracle", false));
  EXPECT_FALSE(flags.GetBool("timeline", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetInt("jobs", 9), 9);
  EXPECT_EQ(flags.GetString("policy", "optimus"), "optimus");
  EXPECT_DOUBLE_EQ(flags.GetDouble("interval", 600.0), 600.0);
  EXPECT_TRUE(flags.GetBool("paa", true));
  EXPECT_FALSE(flags.Has("jobs"));
}

TEST(FlagParserTest, DoubleParsing) {
  FlagParser flags = Parse({"--share=0.25"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("share", 0.0), 0.25);
}

TEST(FlagParserTest, PositionalArgumentsKept) {
  FlagParser flags = Parse({"run", "--jobs=3", "output.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(FlagParserTest, UnconsumedKeysDetected) {
  FlagParser flags = Parse({"--jobs=3", "--typo=1"});
  EXPECT_EQ(flags.GetInt("jobs", 0), 3);
  const auto unknown = flags.UnconsumedKeys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(FlagParserTest, BooleanLiteralForms) {
  EXPECT_TRUE(Parse({"--x=true"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=yes"}).GetBool("x", false));
  EXPECT_FALSE(Parse({"--x=false"}).GetBool("x", true));
  EXPECT_FALSE(Parse({"--x=0"}).GetBool("x", true));
}

TEST(FlagParserTest, Int32AcceptsTheWholeIntRange) {
  EXPECT_EQ(Parse({"--threads=4"}).GetInt32("threads", 0), 4);
  EXPECT_EQ(Parse({}).GetInt32("threads", 7), 7);
  EXPECT_EQ(Parse({"--n=2147483647"}).GetInt32("n", 0), 2147483647);
  EXPECT_EQ(Parse({"--n=-2147483648"}).GetInt32("n", 0), -2147483647 - 1);
}

TEST(FlagParserDeathTest, Int32RejectsValuesThatWouldWrap) {
  // 2^32 + 2 would narrow to 2, and 2^31 to a negative count.
  EXPECT_DEATH(Parse({"--threads=4294967298"}).GetInt32("threads", 0),
               "flag --threads expects an integer in .*got '4294967298'");
  EXPECT_DEATH(Parse({"--threads=2147483648"}).GetInt32("threads", 0),
               "flag --threads");
  EXPECT_DEATH(Parse({"--threads=-2147483649"}).GetInt32("threads", 0),
               "flag --threads");
}

TEST(FlagParserTest, LastValueWins) {
  FlagParser flags = Parse({"--jobs=1", "--jobs=2"});
  EXPECT_EQ(flags.GetInt("jobs", 0), 2);
}

}  // namespace
}  // namespace optimus
