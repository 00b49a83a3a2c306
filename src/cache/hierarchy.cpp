#include "cache/hierarchy.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace camps::cache {

CacheHierarchy::CacheHierarchy(sim::Simulator& sim,
                               const HierarchyConfig& config, u32 cores,
                               MemoryPort& memory, LoadDoneFn on_load_done)
    : sim_(sim),
      cfg_(config),
      l3_(config.l3),
      memory_(memory),
      on_load_done_(std::move(on_load_done)) {
  CAMPS_ASSERT(cores > 0);
  CAMPS_ASSERT(on_load_done_);
  CAMPS_ASSERT(config.l1.line_bytes == config.l3.line_bytes &&
               config.l2.line_bytes == config.l3.line_bytes);
  l1_.reserve(cores);
  l2_.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    l1_.push_back(std::make_unique<Cache>(config.l1));
    l2_.push_back(std::make_unique<Cache>(config.l2));
  }
}

void CacheHierarchy::reset_stats() {
  for (auto& c : l1_) c->reset_stats();
  for (auto& c : l2_) c->reset_stats();
  l3_.reset_stats();
  memory_reads_ = memory_writes_ = 0;
  load_latency_cycles_ = loads_completed_ = 0;
}

double CacheHierarchy::amat_cycles() const {
  return loads_completed_ == 0
             ? 0.0
             : static_cast<double>(load_latency_cycles_) /
                   static_cast<double>(loads_completed_);
}

namespace {
Addr align(Addr addr, u64 line_bytes) { return addr - addr % line_bytes; }
}  // namespace

// Fill helpers: victims cascade downward; dirty L3 victims become memory
// writes. Clean victims are dropped (no traffic).

void CacheHierarchy::fill_level(Cache& cache, Addr addr, bool dirty,
                                CoreId core, bool is_l3) {
  const auto victim = cache.fill(addr, dirty);
  if (!victim || !victim->dirty) return;
  if (is_l3) {
    ++memory_writes_;
    memory_.mem_write(victim->line_addr, core);
  } else if (&cache == l1_[core].get()) {
    fill_level(*l2_[core], victim->line_addr, true, core, false);
  } else {
    fill_level(l3_, victim->line_addr, true, core, true);
  }
}

u32 CacheHierarchy::lookup_path(CoreId core, Addr addr, AccessType type,
                                u32& cycles) {
  cycles += cfg_.l1.hit_latency;
  if (l1_[core]->access(addr, type)) return 1;
  cycles += cfg_.l2.hit_latency;
  if (l2_[core]->access(addr, AccessType::kRead)) return 2;
  cycles += cfg_.l3.hit_latency;
  if (l3_.access(addr, AccessType::kRead)) return 3;
  return 0;
}

void CacheHierarchy::complete_load(CoreId core, Tick issued) {
  ++loads_completed_;
  load_latency_cycles_ += (sim_.now() - issued) / sim::kCpuTicksPerCycle;
  on_load_done_(core);
}

void CacheHierarchy::read(CoreId core, Addr addr) {
  const Addr line = align(addr, cfg_.l3.line_bytes);
  const Tick issued = sim_.now();
  u32 cycles = 0;
  const u32 level = lookup_path(core, line, AccessType::kRead, cycles);
  if (level != 0) {
    if (level >= 3) fill_level(*l2_[core], line, false, core, false);
    if (level >= 2) fill_level(*l1_[core], line, false, core, false);
    sim_.schedule(Tick{cycles} * sim::kCpuTicksPerCycle, sim::Site::kLoadDone,
                  core, [this, core, issued] { complete_load(core, issued); });
    return;
  }

  // L3 miss: register with the MSHRs; the first miss launches the fetch
  // after the full lookup latency has elapsed.
  allocate(line, cycles, {.core = core, .store = false, .issued = issued});
}

void CacheHierarchy::allocate(Addr line, u32 lookup_cycles,
                              const MshrFile::Waiter& waiter) {
  if (mshrs_.allocate(line, waiter) == MshrFile::Allocate::kMustFetch) {
    sim_.schedule(Tick{lookup_cycles} * sim::kCpuTicksPerCycle,
                  sim::Site::kMissLaunch, waiter.core,
                  [this, core = waiter.core, line] {
                    ++memory_reads_;
                    memory_.mem_read(line, core);
                  });
  }
}

void CacheHierarchy::wake(Addr line, const MshrFile::Waiter& waiter) {
  fill_level(*l2_[waiter.core], line, false, waiter.core, false);
  fill_level(*l1_[waiter.core], line, /*dirty=*/waiter.store, waiter.core,
             false);
  if (!waiter.store) complete_load(waiter.core, waiter.issued);
}

void CacheHierarchy::fill_from_memory(Addr line) {
  fill_level(l3_, line, false, /*core=*/0, /*is_l3=*/true);
  for (const auto& waiter : mshrs_.complete(line)) wake(line, waiter);
}

void CacheHierarchy::write(CoreId core, Addr addr) {
  const Addr line = align(addr, cfg_.l3.line_bytes);
  u32 cycles = 0;
  const u32 level = lookup_path(core, line, AccessType::kWrite, cycles);
  if (level == 1) return;  // dirty bit set by access()
  if (level != 0) {
    if (level >= 3) fill_level(*l2_[core], line, false, core, false);
    fill_level(*l1_[core], line, /*dirty=*/true, core, false);
    return;
  }
  // Write-allocate: fetch the line; the store itself has already retired
  // (store buffer), so nothing waits on it — the line lands dirty in L1.
  allocate(line, cycles, {.core = core, .store = true});
}

}  // namespace camps::cache
