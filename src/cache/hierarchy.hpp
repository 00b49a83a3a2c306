// Three-level cache hierarchy per Table I:
//   L1 (I/D unified here as data path): 32 KB private, 2-way, 2-cycle hit
//   L2: 256 KB private, 4-way, 6-cycle hit
//   L3: 16 MB shared, 16-way, 20-cycle hit, 64 B lines
//
// Functional tags + scheduled latencies: a read resolves at the first level
// that hits, after the sum of lookup latencies down to it. Misses past the
// L3 go to main memory through a MemoryPort; MSHRs merge same-line misses.
// Write-back/write-allocate: stores that miss fetch the line like a load
// (but complete the store immediately — store buffers hide the latency),
// dirty victims cascade down and dirty L3 victims become memory writes.
//
// Completions travel by key: the memory side answers a fetch by calling
// fill_from_memory(line), the MSHR entry for that line names its waiting
// cores, and every finished load leaves through the one on_load_done(core)
// hook given at construction.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace camps::cache {

/// The hierarchy's view of main memory (implemented by the HMC host
/// controller via a thin adapter in the system layer). A read is answered
/// by calling CacheHierarchy::fill_from_memory(line_addr).
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;
  virtual void mem_read(Addr line_addr, CoreId core) = 0;
  virtual void mem_write(Addr line_addr, CoreId core) = 0;
};

struct HierarchyConfig {
  CacheConfig l1{.size_bytes = 32 * 1024, .ways = 2, .line_bytes = 64,
                 .hit_latency = 2};
  CacheConfig l2{.size_bytes = 256 * 1024, .ways = 4, .line_bytes = 64,
                 .hit_latency = 6};
  CacheConfig l3{.size_bytes = 16 * 1024 * 1024, .ways = 16, .line_bytes = 64,
                 .hit_latency = 20};
};

class CacheHierarchy final {
 public:
  /// Fired once per completed load with the core that issued it.
  using LoadDoneFn = std::function<void(CoreId)>;

  CacheHierarchy(sim::Simulator& sim, const HierarchyConfig& config,
                 u32 cores, MemoryPort& memory, LoadDoneFn on_load_done);

  /// Performs a load; on_load_done(core) fires when the data reaches the
  /// core.
  void read(CoreId core, Addr addr);

  /// Performs a store (write-allocate; completes immediately for the core,
  /// the line fetch proceeds in the background on a miss).
  void write(CoreId core, Addr addr);

  /// The memory side's answer to mem_read(line): fills the L3 and serves
  /// every miss waiting on the line.
  void fill_from_memory(Addr line);

  // --- inspection -------------------------------------------------------
  const Cache& l1(CoreId core) const { return *l1_[core]; }
  const Cache& l2(CoreId core) const { return *l2_[core]; }
  const Cache& l3() const { return l3_; }
  const MshrFile& mshrs() const { return mshrs_; }
  u64 l3_misses() const { return l3_.misses(); }
  u64 memory_reads() const { return memory_reads_; }
  u64 memory_writes() const { return memory_writes_; }
  /// Sum of load completion latencies (CPU cycles) and count, for AMAT.
  u64 load_latency_cycles() const { return load_latency_cycles_; }
  u64 loads_completed() const { return loads_completed_; }
  double amat_cycles() const;

  /// Zeroes all cache and latency counters; contents stay warm.
  void reset_stats();

  /// Audits the MSHR file.
  void audit(check::AuditReporter& reporter) const;

 private:
  /// Walks the hierarchy for one line; returns the level that hit
  /// (1/2/3) or 0 for memory, and accumulates lookup latency in `cycles`.
  u32 lookup_path(CoreId core, Addr addr, AccessType type, u32& cycles);
  /// Registers `waiter` for `line`; launches the memory fetch if this is
  /// the first miss.
  void allocate(Addr line, u32 lookup_cycles, const MshrFile::Waiter& waiter);
  /// Brings a returned line into the waiter's private levels and, for a
  /// load, completes it.
  void wake(Addr line, const MshrFile::Waiter& waiter);
  void fill_level(Cache& cache, Addr addr, bool dirty, CoreId core,
                  bool is_l3);
  void complete_load(CoreId core, Tick issued);

  sim::Simulator& sim_;
  HierarchyConfig cfg_;
  std::vector<std::unique_ptr<Cache>> l1_;
  std::vector<std::unique_ptr<Cache>> l2_;
  Cache l3_;
  MshrFile mshrs_;
  MemoryPort& memory_;
  LoadDoneFn on_load_done_;

  u64 memory_reads_ = 0, memory_writes_ = 0;
  u64 load_latency_cycles_ = 0, loads_completed_ = 0;
};

static_assert(check::Auditable<CacheHierarchy>);

}  // namespace camps::cache
