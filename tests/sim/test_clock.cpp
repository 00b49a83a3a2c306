#include "sim/clock.hpp"

#include <gtest/gtest.h>

namespace camps::sim {
namespace {

TEST(Clock, TableIFrequenciesAreExact) {
  // 3 GHz CPU: 3 cycles per ns.
  EXPECT_EQ(3 * kCpuTicksPerCycle, kTicksPerNs);
  // 800 MHz DRAM: 4 cycles per 5 ns.
  EXPECT_EQ(4 * kDramTicksPerCycle, 5 * kTicksPerNs);
}

TEST(Clock, NextEdgeOnEdgeIsIdentity) {
  EXPECT_EQ(next_edge(0, 8), 0u);
  EXPECT_EQ(next_edge(16, 8), 16u);
}

TEST(Clock, NextEdgeRoundsUp) {
  EXPECT_EQ(next_edge(1, 8), 8u);
  EXPECT_EQ(next_edge(7, 8), 8u);
  EXPECT_EQ(next_edge(9, 8), 16u);
}

TEST(Clock, CpuDramPhaseAlignment) {
  // CPU and DRAM clocks share an edge every LCM(8, 30) = 120 ticks = 5 ns.
  u64 shared = 0;
  for (Tick t = 1; t <= 240; ++t) {
    if (next_edge(t, kCpuTicksPerCycle) == t &&
        next_edge(t, kDramTicksPerCycle) == t) {
      ++shared;
      EXPECT_EQ(t % 120, 0u);
    }
  }
  EXPECT_EQ(shared, 2u);  // t = 120, 240
}

// Property sweep over several periods: next_edge is the smallest multiple
// of the period that is >= t.
class ClockEdgeSweep : public ::testing::TestWithParam<u64> {};

TEST_P(ClockEdgeSweep, NextEdgeMinimal) {
  const u64 period = GetParam();
  for (Tick t = 0; t < 5 * period; ++t) {
    const Tick e = next_edge(t, period);
    EXPECT_GE(e, t);
    EXPECT_EQ(e % period, 0u);
    EXPECT_LT(e - t, period);
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, ClockEdgeSweep,
                         ::testing::Values(1, 2, 3, 8, 24, 30));

}  // namespace
}  // namespace camps::sim
