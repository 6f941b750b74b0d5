// CLI flag parsing and the HumanBytes report formatter.
#include <gtest/gtest.h>

#include "src/dirtbuster/dirtbuster.h"
#include "src/util/cli.h"

namespace prestore {
namespace {

TEST(Cli, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--iters=500", "--name=abc", "--flag",
                        "positional"};
  CliFlags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("iters", 0), 500);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_TRUE(flags.GetBool("flag", false));
  EXPECT_FALSE(flags.Has("positional"));  // non --key args are ignored
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("iters", 42), 42);
  EXPECT_EQ(flags.GetString("name", "dflt"), "dflt");
  EXPECT_TRUE(flags.GetBool("b", true));
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 1.5), 1.5);
}

TEST(Cli, DoubleAndBoolParsing) {
  const char* argv[] = {"prog", "--x=2.25", "--yes=true", "--no=false",
                        "--one=1"};
  CliFlags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0), 2.25);
  EXPECT_TRUE(flags.GetBool("yes", false));
  EXPECT_FALSE(flags.GetBool("no", true));
  EXPECT_TRUE(flags.GetBool("one", false));
}

TEST(Cli, BoolAcceptsNoAndZero) {
  const char* argv[] = {"prog", "--a=no", "--b=0", "--c=yes"};
  CliFlags flags(4, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
}

TEST(Cli, NegativeAndExponentNumbersParse) {
  const char* argv[] = {"prog", "--n=-7", "--x=1e-3"};
  CliFlags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 0), -7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0), 1e-3);
}

TEST(CliDeathTest, MalformedValuesExitOne) {
  const char* argv[] = {"prog",          "--workers=abc",
                        "--ops=100x",    "--theta=0.5.1",
                        "--empty=",      "--batched_clean=ture",
                        "--iters"};
  CliFlags flags(7, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("workers", 1), ::testing::ExitedWithCode(1),
              "invalid --workers value 'abc'");
  EXPECT_EXIT(flags.GetInt("ops", 1), ::testing::ExitedWithCode(1),
              "invalid --ops value '100x'");
  EXPECT_EXIT(flags.GetDouble("theta", 0), ::testing::ExitedWithCode(1),
              "invalid --theta value '0.5.1'");
  EXPECT_EXIT(flags.GetDouble("empty", 0), ::testing::ExitedWithCode(1),
              "invalid --empty value ''");
  EXPECT_EXIT(flags.GetBool("batched_clean", true),
              ::testing::ExitedWithCode(1),
              "invalid --batched_clean value 'ture'");
  // A bare flag reads as "true", which is no number.
  EXPECT_EXIT(flags.GetInt("iters", 1), ::testing::ExitedWithCode(1),
              "invalid --iters value 'true'");
}

TEST(Cli, UnknownFlagsFlagsTypos) {
  const char* argv[] = {"prog", "--iters=500", "--monitered", "--smoke"};
  CliFlags flags(4, const_cast<char**>(argv));
  const auto unknown = flags.UnknownFlags({"iters", "smoke", "monitored"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "monitered");
}

TEST(Cli, UnknownFlagsAlwaysKnowsHelp) {
  const char* argv[] = {"prog", "--help"};
  CliFlags flags(2, const_cast<char**>(argv));
  EXPECT_TRUE(flags.UnknownFlags({"iters"}).empty());
  EXPECT_TRUE(flags.UnknownFlags({}).empty());
}

TEST(Cli, UnknownFlagsEmptyWhenAllKnown) {
  const char* argv[] = {"prog", "--a=1", "--b"};
  CliFlags flags(3, const_cast<char**>(argv));
  EXPECT_TRUE(flags.UnknownFlags({"a", "b", "c"}).empty());
  EXPECT_EQ(flags.UnknownFlags({}).size(), 2u);
}

TEST(HumanBytes, Formats) {
  EXPECT_EQ(HumanBytes(0), "0B");
  EXPECT_EQ(HumanBytes(240), "240B");
  EXPECT_EQ(HumanBytes(2048), "2.0KB");
  EXPECT_EQ(HumanBytes(16 << 20 | (200 << 10)), "16.2MB");
}

}  // namespace
}  // namespace prestore
