#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(EventQueue, SameTickRunsInSiteThenIdOrder) {
  // Whatever the insertion order, one tick runs by (site, id), and only
  // events of one site and id keep their insertion order.
  struct Tagged {
    Site site;
    u32 id;
    int label;
  };
  const std::vector<Tagged> inserted = {
      {Site::kVaultWake, 3, 0},    {Site::kVaultArrival, 7, 1},
      {Site::kHostResponse, 2, 2}, {Site::kVaultWake, 1, 3},
      {Site::kEpochSample, 0, 4},  {Site::kVaultWake, 1, 5},
      {Site::kRowCopy, 0, 6},      {Site::kHostResponse, 0, 7},
  };
  const std::vector<int> expected = {7, 2, 1, 6, 3, 5, 0, 4};
  for (size_t rotation = 0; rotation < inserted.size(); ++rotation) {
    EventQueue q;
    q.schedule(101, [] {});  // a later tick never interleaves
    std::vector<int> order;
    for (size_t i = 0; i < inserted.size(); ++i) {
      const Tagged& t = inserted[(i + rotation) % inserted.size()];
      q.schedule(100, t.site, t.id, [&order, label = t.label] {
        order.push_back(label);
      });
    }
    while (q.size() > 1) q.pop().second();
    std::vector<int> want = expected;
    // Same (site, id) pair: labels 3 and 5 keep their insertion order.
    if ((5 + inserted.size() - rotation) % inserted.size() <
        (3 + inserted.size() - rotation) % inserted.size()) {
      std::swap(want[4], want[5]);
    }
    EXPECT_EQ(order, want) << "rotation " << rotation;
  }
}

TEST(EventQueue, NextSiteReportsEarliest) {
  EventQueue q;
  q.schedule(5, Site::kVaultWake, 0, [] {});
  q.schedule(5, Site::kCoreStep, 9, [] {});
  q.schedule(4, Site::kEpochSample, 0, [] {});
  EXPECT_EQ(q.next_site(), Site::kEpochSample);
  q.pop();
  EXPECT_EQ(q.next_site(), Site::kCoreStep);
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

// --- cancellation ----------------------------------------------------------

std::vector<Tick> drain(EventQueue& q) {
  std::vector<Tick> popped;
  while (!q.empty()) {
    auto [when, fn] = q.pop();
    fn();
    popped.push_back(when);
  }
  return popped;
}

TEST(EventQueueCancel, CancelHeadMiddleAndTail) {
  for (const int victim : {0, 3, 6}) {  // head, middle, tail of 7
    // Ticks 10..70, inserted in reverse so heap order is not insertion.
    EventQueue q;
    std::vector<Tick> ran;
    std::vector<EventHandle> handles(7);
    for (int i = 6; i >= 0; --i) {
      const Tick when = static_cast<Tick>(i + 1) * 10;
      handles[static_cast<size_t>(i)] =
          q.schedule(when, [&ran, when] { ran.push_back(when); });
    }
    q.cancel(handles[static_cast<size_t>(victim)]);
    EXPECT_FALSE(q.pending(handles[static_cast<size_t>(victim)]));
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(q.cancelled_count(), 1u);
    drain(q);
    std::vector<Tick> want;
    for (int i = 0; i < 7; ++i) {
      if (i != victim) want.push_back(static_cast<Tick>(i + 1) * 10);
    }
    EXPECT_EQ(ran, want) << "victim " << victim;
  }
}

TEST(EventQueueCancel, CancelTheOnlyEntry) {
  EventQueue q;
  bool ran = false;
  const EventHandle h = q.schedule(5, [&ran] { ran = true; });
  EXPECT_TRUE(q.pending(h));
  q.cancel(h);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pending(h));
  // The freed slot takes the next event; the old handle stays stale.
  const EventHandle next = q.schedule(6, [] {});
  EXPECT_EQ(next.slot, h.slot);
  EXPECT_FALSE(q.pending(h));
  EXPECT_TRUE(q.pending(next));
  drain(q);
  EXPECT_FALSE(ran);
}

TEST(EventQueueCancel, FifoSurvivesCancelAndSlotReuse) {
  // Cancel every other same-tick event, then refill the freed slots at the
  // same tick: survivors run first, in insertion order, then the refills.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(q.schedule(100, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 12; i += 2) q.cancel(handles[static_cast<size_t>(i)]);
  for (int i = 12; i < 18; ++i) {
    q.schedule(100, [&order, i] { order.push_back(i); });
  }
  drain(q);
  EXPECT_EQ(order,
            (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 13, 14, 15, 16, 17}));
}

TEST(EventQueueCancel, RandomCancelsKeepTheRestSorted) {
  EventQueue q;
  std::vector<Tick> ran;
  std::vector<std::pair<EventHandle, Tick>> live;
  u64 x = 77;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Tick when = (x >> 40) % 5000;
    live.emplace_back(q.schedule(when, [&ran, when] { ran.push_back(when); }),
                      when);
    if (i % 3 == 2) {  // cancel a pseudo-random earlier survivor
      const size_t pick = (x >> 20) % live.size();
      q.cancel(live[pick].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  std::vector<Tick> want;
  for (const auto& [handle, when] : live) want.push_back(when);
  std::sort(want.begin(), want.end());
  drain(q);
  EXPECT_EQ(ran, want);
}

TEST(EventQueueCancelDeathTest, StaleHandleAsserts) {
  EventQueue q;
  const EventHandle fired = q.schedule(1, [] {});
  q.pop();
  EXPECT_DEATH(q.cancel(fired), "already ran or was cancelled");
  const EventHandle cancelled = q.schedule(2, [] {});
  q.cancel(cancelled);
  EXPECT_DEATH(q.cancel(cancelled), "already ran or was cancelled");
  EXPECT_DEATH(q.cancel(EventHandle{}), "already ran or was cancelled");
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
