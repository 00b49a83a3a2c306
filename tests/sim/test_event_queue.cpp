#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

namespace camps::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, InterleavedTiesStillFifoPerTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(50); });
  q.schedule(1, [&] { order.push_back(10); });
  q.schedule(5, [&] { order.push_back(51); });
  q.schedule(1, [&] { order.push_back(11); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 50, 51}));
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(42, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7u);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.schedule(9, [] {});
  auto [when, fn] = q.pop();
  EXPECT_EQ(when, 9u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduledCountMonotone) {
  EventQueue q;
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.pop();
  EXPECT_EQ(q.scheduled_count(), 2u);
}

TEST(EventQueue, ClearDropsEvents) {
  EventQueue q;
  q.schedule(1, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesStayFifoAcrossSlotRecycling) {
  // Slot reuse via the free list must never leak into ordering: after heavy
  // pop/schedule churn, equal-tick events still run in insertion order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) q.schedule(static_cast<Tick>(i), [] {});
  for (int i = 0; i < 64; ++i) q.pop();
  for (int i = 0; i < 16; ++i) {
    q.schedule(500, [&order, i] { order.push_back(i); });
  }
  std::vector<int> expected;
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 16; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Event, SmallCaptureStaysInline) {
  // The simulator's hot captures (a few pointers + scalars) are plain
  // values stored inside the event. 48 bytes mirrors the vault controller's
  // completion callbacks.
  struct Capture {
    u64* sink;
    u64 a, b, c, d, e;
    void operator()() const { *sink = a + b + c + d + e; }
  };
  u64 sink = 0;
  Event e(Capture{&sink, 1, 2, 3, 4, 5});
  e();
  EXPECT_EQ(sink, 15u);
}

TEST(Event, DispatchLoopAllocationFree) {
  EventQueue q;
  u64 sink = 0;
  q.schedule(0, [&sink] { sink += 1; });
  for (int i = 0; i < 1000; ++i) {
    auto [when, fn] = q.pop();
    fn();
    q.schedule(when + 1, [&sink, when] { sink += when; });
  }
  EXPECT_EQ(sink, 1u + 998u * 999u / 2u);
  q.clear();
}

// Captures that would need the heap or a destructor do not compile: the
// event path never allocates, relocates or destroys.
struct OversizedCapture {
  unsigned char pad[Event::kInlineCapacity + 8];
  void operator()() const {}
};
static_assert(!std::is_constructible_v<Event, OversizedCapture>);

struct SharedCapture {
  std::shared_ptr<int> owned;
  void operator()() const {}
};
static_assert(!std::is_constructible_v<Event, SharedCapture>);

TEST(Event, CopyIsPlainValue) {
  static_assert(std::is_trivially_copyable_v<Event>);
  int calls = 0;
  Event a([&calls] { ++calls; });
  Event b = a;
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  a();
  b();
  EXPECT_EQ(calls, 2);
  b.reset();
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(EventQueue, LargeRandomLoadStaysSorted) {
  EventQueue q;
  // Insert pseudo-random times; verify nondecreasing pops.
  u64 x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(x >> 40, [] {});
  }
  Tick prev = 0;
  while (!q.empty()) {
    auto [when, fn] = q.pop();
    EXPECT_GE(when, prev);
    prev = when;
  }
}

}  // namespace
}  // namespace camps::sim
