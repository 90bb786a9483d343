#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/flags.h"

namespace spacetwist::cli {
namespace {

Flags MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  return flags.MoveValueOrDie();
}

TEST(FlagsTest, CommandAndPositional) {
  const Flags flags = MustParse({"query", "extra1", "extra2"});
  EXPECT_EQ(flags.command(), "query");
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "extra1");
}

TEST(FlagsTest, NoCommand) {
  const Flags flags = MustParse({"--x", "3"});
  EXPECT_EQ(flags.command(), "");
  EXPECT_TRUE(flags.Has("x"));
}

TEST(FlagsTest, SpaceAndEqualsForms) {
  const Flags flags = MustParse({"gen", "--n", "500", "--seed=42"});
  EXPECT_EQ(*flags.GetInt("n", 0), 500);
  EXPECT_EQ(*flags.GetInt("seed", 0), 42);
}

TEST(FlagsTest, SwitchesAndDefaults) {
  const Flags flags = MustParse({"run", "--verbose", "--k", "3"});
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("quiet"));
  EXPECT_EQ(*flags.GetInt("k", 0), 3);
  EXPECT_EQ(*flags.GetInt("missing", 9), 9);
  EXPECT_EQ(flags.GetString("missing", "def"), "def");
}

TEST(FlagsTest, SwitchFollowedByFlag) {
  const Flags flags = MustParse({"run", "--dry-run", "--out", "f.bin"});
  EXPECT_TRUE(flags.GetBool("dry-run"));
  EXPECT_EQ(flags.GetString("out", ""), "f.bin");
}

TEST(FlagsTest, DoubleParsing) {
  const Flags flags = MustParse({"q", "--x", "12.5", "--bad", "oops"});
  EXPECT_DOUBLE_EQ(*flags.GetDouble("x", 0), 12.5);
  EXPECT_DOUBLE_EQ(*flags.GetDouble("missing", 7.5), 7.5);
  EXPECT_TRUE(flags.GetDouble("bad", 0).status().IsInvalidArgument());
  EXPECT_TRUE(flags.GetInt("bad", 0).status().IsInvalidArgument());
}

TEST(FlagsTest, NegativeNumbersAsValues) {
  // A value starting with '-' but not '--' is a value, not a flag.
  const Flags flags = MustParse({"q", "--x", "-42.5"});
  EXPECT_DOUBLE_EQ(*flags.GetDouble("x", 0), -42.5);
}

TEST(FlagsTest, DoubleList) {
  const Flags flags = MustParse({"sweep", "--values", "0,50,100.5"});
  auto values = flags.GetDoubleList("values", {});
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), 3u);
  EXPECT_DOUBLE_EQ((*values)[2], 100.5);
  // Defaults when absent.
  auto defaults = flags.GetDoubleList("nope", {1, 2});
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->size(), 2u);
}

TEST(FlagsTest, DoubleListRejectsGarbage) {
  const Flags flags = MustParse({"sweep", "--values", "1,,3"});
  EXPECT_TRUE(flags.GetDoubleList("values", {}).status()
                  .IsInvalidArgument());
  const Flags flags2 = MustParse({"sweep", "--values", "1,x"});
  EXPECT_TRUE(flags2.GetDoubleList("values", {}).status()
                  .IsInvalidArgument());
}

TEST(FlagsTest, BareDoubleDashRejected) {
  std::vector<const char*> argv = {"tool", "cmd", "--"};
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.status().IsInvalidArgument());
}

TEST(FlagsTest, FlagNamesEnumerated) {
  const Flags flags = MustParse({"q", "--a", "1", "--b"});
  const auto names = flags.FlagNames();
  EXPECT_EQ(names.size(), 2u);
}

TEST(FlagsTest, CheckKnownNamesTheFirstUnknownFlag) {
  // A typo and a flag of another mode must both fail loudly, naming the
  // flag, instead of running without them.
  const Flags flags =
      MustParse({"serve-bench", "--dataset", "ds.bin", "--open-loop",
                 "--shards", "4", "--threds", "8"});
  const Status status = flags.CheckKnown({"dataset", "open-loop"});
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("--shards"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("serve-bench"), std::string::npos);
  const Status typo =
      flags.CheckKnown({"dataset", "open-loop", "shards", "threads"});
  ASSERT_TRUE(typo.IsInvalidArgument());
  EXPECT_NE(typo.ToString().find("--threds"), std::string::npos);
  EXPECT_TRUE(
      flags.CheckKnown({"dataset", "open-loop", "shards", "threds"}).ok());
  EXPECT_TRUE(MustParse({"q"}).CheckKnown({}).ok());
}

TEST(FlagsTest, LastValueWinsOnRepeat) {
  const Flags flags = MustParse({"q", "--x", "1", "--x", "2"});
  EXPECT_EQ(*flags.GetInt("x", 0), 2);
}

}  // namespace
}  // namespace spacetwist::cli
