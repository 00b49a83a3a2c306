#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace camps::sim {
namespace {

/// These tests exercise time order only; every event shares one site.
constexpr Site kSite = Site::kCoreStep;

TEST(Simulator, NowStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, ScheduleRelativeAdvancesNow) {
  Simulator sim;
  Tick seen = 0;
  sim.schedule(25, kSite, 0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 25u);
  EXPECT_EQ(sim.now(), 25u);
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<Tick> times;
  sim.schedule(10, kSite, 0, [&] {
    times.push_back(sim.now());
    sim.schedule(5, kSite, 0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Tick>{10, 15}));
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, kSite, 0, [] {});
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, kSite, 0, [&] { ++fired; });
  sim.schedule(20, kSite, 0, [&] { ++fired; });
  sim.schedule(30, kSite, 0, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, RunUntilAdvancesNowOnEmptyQueue) {
  Simulator sim;
  sim.run_until(99);
  EXPECT_EQ(sim.now(), 99u);
}

TEST(Simulator, StopEndsRunAfterItsEvent) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i, kSite, 0, [&] {
      if (++count == 4) sim.stop();
    });
  }
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), 4u) << "a stopped run stays at the stopping event";
  // The next run resumes with the following event.
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, StopEndsRunUntilBeforeItsDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, kSite, 0, [&] { ++count; });
  sim.schedule(20, kSite, 0, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule(20, kSite, 0, [&] { ++count; });
  EXPECT_EQ(sim.run_until(100), 2u);
  EXPECT_EQ(count, 2) << "the same-tick event after stop() waits";
  EXPECT_EQ(sim.now(), 20u) << "a stopped run does not advance to the deadline";
  EXPECT_EQ(sim.run_until(100), 1u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, ScheduleAtAbsolute) {
  Simulator sim;
  Tick seen = 0;
  sim.schedule_at(100, kSite, 0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, kSite, 0, [&] {
    order.push_back(1);
    sim.schedule(0, kSite, 0, [&] { order.push_back(2); });
  });
  sim.schedule(10, kSite, 0, [&] { order.push_back(3); });
  sim.run();
  // The zero-delay event was scheduled after event 3 at the same tick.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 10u);
}

}  // namespace
}  // namespace camps::sim
