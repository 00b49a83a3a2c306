#include "prefetch/conflict_table.hpp"

#include <gtest/gtest.h>

namespace camps::prefetch {
namespace {

BankRow row(u32 bank, u64 r) { return BankRow{bank, r}; }

TEST(ConflictTable, StartsEmpty) {
  ConflictTable ct(32);
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.capacity(), 32u);
  EXPECT_FALSE(ct.contains(row(0, 1)));
}

TEST(ConflictTable, InsertAndContains) {
  ConflictTable ct(4);
  EXPECT_FALSE(ct.insert(row(0, 1)).has_value());
  EXPECT_TRUE(ct.contains(row(0, 1)));
  EXPECT_EQ(ct.size(), 1u);
}

TEST(ConflictTable, BankDistinguishesEntries) {
  ConflictTable ct(4);
  ct.insert(row(0, 1));
  EXPECT_FALSE(ct.contains(row(1, 1)));
}

TEST(ConflictTable, LruEvictionWhenFull) {
  ConflictTable ct(3);
  ct.insert(row(0, 1));
  ct.insert(row(0, 2));
  ct.insert(row(0, 3));
  const auto evicted = ct.insert(row(0, 4));
  ASSERT_TRUE(evicted);
  EXPECT_EQ(*evicted, row(0, 1));
  EXPECT_FALSE(ct.contains(row(0, 1)));
  EXPECT_EQ(ct.size(), 3u);
}

TEST(ConflictTable, ReinsertRefreshesLruPosition) {
  ConflictTable ct(3);
  ct.insert(row(0, 1));
  ct.insert(row(0, 2));
  ct.insert(row(0, 3));
  ct.insert(row(0, 1));  // refresh row 1 to MRU
  const auto evicted = ct.insert(row(0, 4));
  ASSERT_TRUE(evicted);
  EXPECT_EQ(*evicted, row(0, 2)) << "row 2 is now the LRU";
  EXPECT_TRUE(ct.contains(row(0, 1)));
}

TEST(ConflictTable, RemovePresentAndAbsent) {
  ConflictTable ct(4);
  ct.insert(row(0, 1));
  EXPECT_TRUE(ct.remove(row(0, 1)));
  EXPECT_FALSE(ct.contains(row(0, 1)));
  EXPECT_FALSE(ct.remove(row(0, 1)));
}

TEST(ConflictTable, SnapshotMruFirst) {
  ConflictTable ct(4);
  ct.insert(row(0, 1));
  ct.insert(row(0, 2));
  ct.insert(row(0, 3));
  const auto& snap = ct.entries();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0], row(0, 3));
  EXPECT_EQ(snap[2], row(0, 1));
}

TEST(ConflictTable, ContainsDoesNotRefreshLru) {
  ConflictTable ct(2);
  ct.insert(row(0, 1));
  ct.insert(row(0, 2));
  (void)ct.contains(row(0, 1));  // pure query
  const auto evicted = ct.insert(row(0, 3));
  ASSERT_TRUE(evicted);
  EXPECT_EQ(*evicted, row(0, 1)) << "contains() must not touch LRU order";
}

TEST(ConflictTable, PaperHardwareOverhead) {
  // Section 3.3: 32 entries x 20 bits per vault = 80 bytes.
  ConflictTable ct(32);
  EXPECT_EQ(ct.overhead_bits(), 640u);
  EXPECT_EQ(ct.overhead_bits() / 8, 80u);
}

TEST(ConflictTable, HeavyChurnInvariants) {
  ConflictTable ct(8);
  u64 x = 3;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const BankRow r{static_cast<BankId>((x >> 5) % 4), (x >> 20) % 64};
    if ((x & 3) == 0) {
      ct.remove(r);
      EXPECT_FALSE(ct.contains(r));
    } else {
      ct.insert(r);
      EXPECT_TRUE(ct.contains(r));
    }
    ASSERT_LE(ct.size(), ct.capacity());
  }
}

}  // namespace
}  // namespace camps::prefetch
