#include "cache/mshr.hpp"

#include <gtest/gtest.h>
#include <vector>

namespace camps::cache {
namespace {

TEST(Mshr, FirstAllocationMustFetch) {
  MshrFile mshrs;
  EXPECT_EQ(mshrs.allocate(0x1000, {}), MshrFile::Allocate::kMustFetch);
  EXPECT_TRUE(mshrs.pending(0x1000));
  EXPECT_EQ(mshrs.entries_in_use(), 1u);
}

TEST(Mshr, SecondAllocationMerges) {
  MshrFile mshrs;
  mshrs.allocate(0x1000, {});
  EXPECT_EQ(mshrs.allocate(0x1000, {}), MshrFile::Allocate::kMerged);
  EXPECT_EQ(mshrs.entries_in_use(), 1u);
  EXPECT_EQ(mshrs.merges(), 1u);
}

TEST(Mshr, CompleteWakesAllWaitersInOrder) {
  MshrFile mshrs;
  mshrs.allocate(0x1000, {.core = 1, .store = false, .issued = 10});
  mshrs.allocate(0x1000, {.core = 2, .store = true});
  mshrs.allocate(0x1000, {.core = 3, .store = false, .issued = 30});
  std::vector<int> order;
  const auto waiters = mshrs.complete(0x1000);
  for (const auto& w : waiters) order.push_back(static_cast<int>(w.core));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // The records come back exactly as registered.
  ASSERT_EQ(waiters.size(), 3u);
  EXPECT_FALSE(waiters[0].store);
  EXPECT_EQ(waiters[0].issued, 10u);
  EXPECT_TRUE(waiters[1].store);
  EXPECT_EQ(waiters[2].issued, 30u);
  EXPECT_FALSE(mshrs.pending(0x1000));
}

TEST(Mshr, DistinctLinesIndependent) {
  MshrFile mshrs;
  EXPECT_EQ(mshrs.allocate(0x1000, {}), MshrFile::Allocate::kMustFetch);
  EXPECT_EQ(mshrs.allocate(0x2000, {}), MshrFile::Allocate::kMustFetch);
  EXPECT_EQ(mshrs.entries_in_use(), 2u);
  mshrs.complete(0x1000);
  EXPECT_FALSE(mshrs.pending(0x1000));
  EXPECT_TRUE(mshrs.pending(0x2000));
}

TEST(Mshr, ReallocateAfterComplete) {
  MshrFile mshrs;
  mshrs.allocate(0x1000, {});
  mshrs.complete(0x1000);
  EXPECT_EQ(mshrs.allocate(0x1000, {}), MshrFile::Allocate::kMustFetch);
}

TEST(Mshr, UnlimitedByDefault) {
  MshrFile mshrs;
  for (Addr a = 0; a < 1000 * 64; a += 64) {
    EXPECT_EQ(mshrs.allocate(a, {}), MshrFile::Allocate::kMustFetch);
  }
  EXPECT_EQ(mshrs.entries_in_use(), 1000u);
}

TEST(Mshr, CountsAllocations) {
  MshrFile mshrs;
  mshrs.allocate(0x1000, {});
  mshrs.allocate(0x2000, {});
  mshrs.allocate(0x1000, {});
  EXPECT_EQ(mshrs.allocations(), 2u);
  EXPECT_EQ(mshrs.merges(), 1u);
}

}  // namespace
}  // namespace camps::cache
