// Strict command-line value parsing shared by camps_sim and camps_bench.
#include "common/cli.hpp"

#include <gtest/gtest.h>
#include <string>

namespace camps::cli {
namespace {

TEST(Cli, FlagValueMatchesOnlyTheWholeFlag) {
  std::string v;
  EXPECT_TRUE(flag_value("--seed=7", "--seed", &v));
  EXPECT_EQ(v, "7");
  EXPECT_TRUE(flag_value("--seed=", "--seed", &v));
  EXPECT_EQ(v, "");
  EXPECT_FALSE(flag_value("--seed", "--seed", &v));
  EXPECT_FALSE(flag_value("--seeds=7", "--seed", &v));
  EXPECT_FALSE(flag_value("--see=7", "--seed", &v));
}

TEST(Cli, ParsesWholeNumbers) {
  EXPECT_EQ(parse_u64("--n", "0"), 0u);
  EXPECT_EQ(parse_u64("--n", "18446744073709551615"), ~u64{0});
  EXPECT_EQ(parse_u64("--n", "4294967295", ~u32{0}), ~u32{0});
  EXPECT_DOUBLE_EQ(parse_double("--r", "1e-4"), 1e-4);
  EXPECT_DOUBLE_EQ(parse_double("--r", "0.5"), 0.5);
}

TEST(Cli, RejectsMalformedNumbersNamingTheFlag) {
  for (const char* bad : {"", "abc", "12abc", "-1", "+1", " 1", "1.5",
                          "18446744073709551616"}) {
    try {
      parse_u64("--warmup", bad);
      FAIL() << "accepted \"" << bad << "\"";
    } catch (const UsageError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--warmup expects a number, got \"") + bad + "\"");
    }
  }
  EXPECT_THROW(parse_u64("--jobs", "4294967296", ~u32{0}), UsageError);
  for (const char* bad : {"", "oops", "1e-4x", "nan", "inf"}) {
    EXPECT_THROW(parse_double("--fault-rate", bad), UsageError) << bad;
  }
}

}  // namespace
}  // namespace camps::cli
