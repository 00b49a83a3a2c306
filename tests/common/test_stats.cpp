#include "common/stats.hpp"

#include <gtest/gtest.h>
#include <string>

namespace camps {
namespace {

TEST(Counter, StartsAtZero) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementsByOneAndBy) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, Reset) {
  Counter c;
  c.inc(5);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h(10, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, TracksExactAggregates) {
  Histogram h(10, 10);
  h.sample(5);
  h.sample(25);
  h.sample(15);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 45u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 25u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, BucketPlacement) {
  Histogram h(10, 4);  // buckets [0,10) [10,20) [20,30) [30,40) + overflow
  h.sample(0);
  h.sample(9);
  h.sample(10);
  h.sample(39);
  h.sample(40);   // overflow
  h.sample(1000); // overflow
  const auto& b = h.buckets();
  EXPECT_EQ(b[0], 2u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 0u);
  EXPECT_EQ(b[3], 1u);
  EXPECT_EQ(b[4], 2u);
}

TEST(Histogram, PercentileOrdering) {
  Histogram h(1, 128);
  for (u64 v = 0; v < 100; ++v) h.sample(v);
  EXPECT_LE(h.percentile(10), h.percentile(50));
  EXPECT_LE(h.percentile(50), h.percentile(99));
  EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
}

TEST(Histogram, PercentileEdgeCases) {
  // Empty histogram: every percentile is 0.
  Histogram empty(10, 4);
  EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);

  // Single sample: all percentiles land in its bucket (midpoint reported).
  Histogram one(10, 4);
  one.sample(17);
  EXPECT_DOUBLE_EQ(one.percentile(0), 15.0);
  EXPECT_DOUBLE_EQ(one.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(one.percentile(100), 15.0);

  // Out-of-range p clamps instead of reading past the distribution.
  EXPECT_DOUBLE_EQ(one.percentile(-5), one.percentile(0));
  EXPECT_DOUBLE_EQ(one.percentile(250), one.percentile(100));

  // Samples past the last bucket land in the overflow bucket, which reports
  // its lower edge (the bucketing can't know how far past it they went).
  Histogram over(10, 4);  // tracked range [0, 40), overflow edge at 40
  over.sample(1000);
  EXPECT_DOUBLE_EQ(over.percentile(50), 40.0);
  EXPECT_EQ(over.max(), 1000u);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h(10, 4);
  h.sample(3);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  for (u64 b : h.buckets()) EXPECT_EQ(b, 0u);
}

TEST(StatRegistry, CounterIdentityIsStable) {
  StatRegistry reg;
  Counter& a = reg.counter("x.y");
  a.inc(3);
  EXPECT_EQ(&reg.counter("x.y"), &a);
  EXPECT_EQ(reg.counter_value("x.y"), 3u);
}

TEST(StatRegistry, MissingCounterReadsZero) {
  StatRegistry reg;
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  EXPECT_FALSE(reg.has_counter("nope"));
}

TEST(StatRegistry, HistogramKeepsParamsOnRelookup) {
  StatRegistry reg;
  Histogram& h = reg.histogram("lat", 100, 8);
  h.sample(50);
  Histogram& again = reg.histogram("lat", 999, 1);  // params ignored
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.count(), 1u);
}

TEST(StatRegistry, SumMatchingWildcard) {
  StatRegistry reg;
  reg.counter("vault0.acts").inc(2);
  reg.counter("vault1.acts").inc(3);
  reg.counter("vault10.acts").inc(5);
  reg.counter("vault1.pres").inc(100);
  EXPECT_EQ(reg.sum_matching("vault*.acts"), 10u);
  EXPECT_EQ(reg.sum_matching("vault1.acts"), 3u);
  EXPECT_EQ(reg.sum_matching("vault*.nothing"), 0u);
}

TEST(StatRegistry, SumMatchingExactWhenNoStar) {
  StatRegistry reg;
  reg.counter("a.b").inc(7);
  EXPECT_EQ(reg.sum_matching("a.b"), 7u);
}

TEST(StatRegistry, DumpSortedAndComplete) {
  StatRegistry reg;
  reg.counter("zeta").inc(1);
  reg.counter("alpha").inc(2);
  const std::string dump = reg.dump();
  const auto a = dump.find("alpha");
  const auto z = dump.find("zeta");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
}

TEST(StatRegistry, ResetZeroesCounters) {
  StatRegistry reg;
  reg.counter("c").inc(9);
  reg.histogram("h").sample(1);
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

}  // namespace
}  // namespace camps
