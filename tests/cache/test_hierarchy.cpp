// Three-level hierarchy: latency composition, fills, writebacks, MSHRs.

#include <gtest/gtest.h>
#include <optional>
#include <utility>
#include <vector>

#include "cache/hierarchy.hpp"

namespace camps::cache {
namespace {

/// Scripted memory: records traffic, answers reads after a fixed delay.
class FakeMemory final : public MemoryPort {
 public:
  FakeMemory(sim::Simulator& sim, Tick latency) : sim_(sim), latency_(latency) {}

  void mem_read(Addr line, CoreId core) override {
    reads.push_back({line, core});
    sim_.schedule(latency_, sim::Site::kHostResponse, 0,
                  [this, line] { hier->fill_from_memory(line); });
  }
  void mem_write(Addr line, CoreId core) override {
    writes.push_back({line, core});
  }

  std::vector<std::pair<Addr, CoreId>> reads;
  std::vector<std::pair<Addr, CoreId>> writes;
  CacheHierarchy* hier = nullptr;  ///< Answers go here.

 private:
  sim::Simulator& sim_;
  Tick latency_;
};

struct Harness {
  sim::Simulator sim;
  FakeMemory memory;
  HierarchyConfig cfg;
  /// (core, tick) of every on_load_done, in firing order.
  std::vector<std::pair<CoreId, Tick>> loads_done;
  CacheHierarchy hier;

  Harness()
      : memory(sim, 600 * sim::kCpuTicksPerCycle),
        cfg(small_config()),
        hier(sim, cfg, /*cores=*/2, memory, [this](CoreId core) {
          loads_done.emplace_back(core, sim.now());
        }) {
    memory.hier = &hier;
  }

  static HierarchyConfig small_config() {
    HierarchyConfig cfg;
    cfg.l1 = CacheConfig{1024, 2, 64, 2};
    cfg.l2 = CacheConfig{4096, 4, 64, 6};
    cfg.l3 = CacheConfig{16384, 4, 64, 20};
    return cfg;
  }

  /// Issues a read and returns its completion latency in CPU cycles.
  u64 timed_read(CoreId core, Addr addr) {
    const Tick start = sim.now();
    const size_t before = loads_done.size();
    hier.read(core, addr);
    sim.run();
    EXPECT_EQ(loads_done.size(), before + 1) << "one completion per load";
    EXPECT_EQ(loads_done.back().first, core);
    return (loads_done.back().second - start) / sim::kCpuTicksPerCycle;
  }

  std::vector<CoreId> load_cores() const {
    std::vector<CoreId> cores;
    for (const auto& [core, tick] : loads_done) cores.push_back(core);
    return cores;
  }
};

TEST(Hierarchy, ColdReadGoesToMemory) {
  Harness h;
  const u64 cycles = h.timed_read(0, 0x10000);
  ASSERT_EQ(h.memory.reads.size(), 1u);
  EXPECT_EQ(h.memory.reads[0].first, 0x10000u);
  // Lookup path (2+6+20) + memory (600).
  EXPECT_EQ(cycles, 2 + 6 + 20 + 600u);
}

TEST(Hierarchy, L1HitAfterFill) {
  Harness h;
  h.timed_read(0, 0x10000);
  EXPECT_EQ(h.timed_read(0, 0x10000), 2u);
  EXPECT_EQ(h.memory.reads.size(), 1u) << "no second memory access";
}

TEST(Hierarchy, L2HitLatency) {
  Harness h;
  h.timed_read(0, 0x10000);
  // Evict from tiny L1 (8 sets x 2 ways): two same-set fills.
  const u64 l1_set_stride = h.cfg.l1.sets() * 64;
  h.timed_read(0, 0x10000 + l1_set_stride);
  h.timed_read(0, 0x10000 + 2 * l1_set_stride);
  // 0x10000 now misses L1; the L2 is big enough to keep it.
  EXPECT_EQ(h.timed_read(0, 0x10000), 2 + 6u);
}

TEST(Hierarchy, L3SharedAcrossCores) {
  Harness h;
  h.timed_read(0, 0x10000);  // core 0 brings the line in
  // Core 1 misses its private L1/L2 but hits the shared L3.
  EXPECT_EQ(h.timed_read(1, 0x10000), 2 + 6 + 20u);
  EXPECT_EQ(h.memory.reads.size(), 1u);
}

TEST(Hierarchy, PrivateL1sIndependent) {
  Harness h;
  h.timed_read(0, 0x10000);
  EXPECT_TRUE(h.hier.l1(0).probe(0x10000));
  EXPECT_FALSE(h.hier.l1(1).probe(0x10000))
      << "core 1's private L1 must not be filled by core 0's read";
}

TEST(Hierarchy, MshrMergesSameLineMisses) {
  Harness h;
  h.hier.read(0, 0x20000);
  h.hier.read(1, 0x20000);
  h.hier.read(0, 0x20040);  // different line
  h.sim.run();
  EXPECT_EQ(h.loads_done.size(), 3u);
  EXPECT_EQ(h.memory.reads.size(), 2u) << "same-line misses merged";
  EXPECT_EQ(h.hier.mshrs().merges(), 1u);
}

TEST(Hierarchy, WriteMissFetchesLine) {
  Harness h;
  h.hier.write(0, 0x30000);
  h.sim.run();
  ASSERT_EQ(h.memory.reads.size(), 1u) << "write-allocate";
  EXPECT_TRUE(h.hier.l1(0).probe(0x30000));
}

TEST(Hierarchy, DirtyLineWrittenBackToMemoryEventually) {
  Harness h;
  h.hier.write(0, 0x40000);
  h.sim.run();
  // Push the dirty line out of L1, L2, and L3 by filling each level's set.
  // Simplest reliable flood: read a working set larger than the whole L3.
  for (Addr a = 0; a < 64 * 1024; a += 64) {
    h.hier.read(0, 0x100000 + a);
    h.sim.run();
  }
  bool found = false;
  for (const auto& [addr, core] : h.memory.writes) {
    found |= addr == 0x40000;
  }
  EXPECT_TRUE(found) << "dirty data must not be lost";
}

TEST(Hierarchy, CleanEvictionsProduceNoMemoryWrites) {
  Harness h;
  for (Addr a = 0; a < 64 * 1024; a += 64) {
    h.hier.read(0, 0x100000 + a);
    h.sim.run();
  }
  EXPECT_TRUE(h.memory.writes.empty());
}

TEST(Hierarchy, AmatReflectsMix) {
  Harness h;
  h.timed_read(0, 0x50000);               // miss: 628
  EXPECT_EQ(h.timed_read(0, 0x50000), 2u); // hit: 2
  EXPECT_DOUBLE_EQ(h.hier.amat_cycles(), (628.0 + 2.0) / 2.0);
  EXPECT_EQ(h.hier.loads_completed(), 2u);
}

TEST(Hierarchy, MemoryTrafficCounters) {
  Harness h;
  h.timed_read(0, 0x60000);
  EXPECT_EQ(h.hier.memory_reads(), 1u);
  EXPECT_EQ(h.hier.l3_misses(), 1u);
}

TEST(Hierarchy, ResetStatsKeepsWarmContents) {
  Harness h;
  h.timed_read(0, 0x70000);
  h.hier.reset_stats();
  EXPECT_EQ(h.hier.memory_reads(), 0u);
  EXPECT_EQ(h.hier.loads_completed(), 0u);
  EXPECT_EQ(h.timed_read(0, 0x70000), 2u) << "contents stay warm";
}

TEST(Hierarchy, MergedStoreAndLoadMissesWakeInArrivalOrder) {
  Harness h;
  h.hier.write(0, 0x90000);  // store miss allocates the entry
  h.hier.read(1, 0x90000);   // load misses merge behind it
  h.hier.read(0, 0x90008);   // same line, other core
  EXPECT_EQ(h.hier.mshrs().entries_in_use(), 1u);
  EXPECT_EQ(h.hier.mshrs().merges(), 2u);
  h.sim.run();
  EXPECT_EQ(h.memory.reads.size(), 1u) << "one fetch serves all three";
  // Only the loads complete, in the order they arrived, at the same tick.
  EXPECT_EQ(h.load_cores(), (std::vector<CoreId>{1, 0}));
  ASSERT_EQ(h.loads_done.size(), 2u);
  EXPECT_EQ(h.loads_done[0].second, h.loads_done[1].second);
  EXPECT_EQ(h.hier.loads_completed(), 2u);
  // The store's waiter landed the line dirty in its core's L1; the other
  // core's copy is clean. (Read the dirty bit from copies: invalidate()
  // reports it.)
  Cache l1_core0 = h.hier.l1(0);
  EXPECT_EQ(l1_core0.invalidate(0x90000), std::optional<bool>(true));
  Cache l1_core1 = h.hier.l1(1);
  EXPECT_EQ(l1_core1.invalidate(0x90000), std::optional<bool>(false));
}

TEST(Hierarchy, WriteToPresentLineIsSilent) {
  Harness h;
  h.timed_read(0, 0x80000);
  h.hier.write(0, 0x80000);
  h.sim.run();
  EXPECT_EQ(h.memory.reads.size(), 1u);
}

}  // namespace
}  // namespace camps::cache
