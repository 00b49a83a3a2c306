// Trace-driven core model (substitute for gem5's OoO cores; DESIGN.md §2).
//
// Each core replays a TraceSource: `gap` non-memory instructions execute at
// `issue_width` per cycle, then the memory access issues (at most one per
// cycle — an L1-port bound). Loads are non-blocking up to
// `max_outstanding_loads` in flight (the ROB/MSHR window); hitting the
// window stalls the core until a load returns. Stores retire immediately
// through the store buffer. This reproduces the arrival process and
// memory-level parallelism that drive row-buffer behaviour, which is what
// the paper's evaluation measures.
//
// Methodology hooks: the core reports when it crosses its warmup boundary
// and its measurement boundary, mirroring the paper's warmup + detailed
// windows; IPC is measured strictly between the two.
#pragma once

#include <functional>
#include <optional>

#include "cache/hierarchy.hpp"
#include "trace/trace.hpp"

namespace camps::cpu {

struct CoreConfig {
  u32 issue_width = 4;
  u32 max_outstanding_loads = 8;
  u64 warmup_instructions = 100'000;
  u64 measure_instructions = 1'000'000;
};

class Core {
 public:
  /// Fired (once each) when the core crosses its warmup / measurement
  /// instruction boundaries.
  using PhaseFn = std::function<void(CoreId)>;

  Core(sim::Simulator& sim, CoreId id, const CoreConfig& config,
       trace::TraceSource& trace, cache::CacheHierarchy& caches,
       PhaseFn on_warmed_up, PhaseFn on_measured);

  /// Begins execution at the current simulation time.
  void start();

  CoreId id() const { return id_; }
  u64 instructions_issued() const { return issued_; }
  bool warmed_up() const { return warmup_tick_.has_value(); }
  bool measured() const { return measure_tick_.has_value(); }
  bool halted() const { return halted_; }

  /// Instructions actually executed inside the measurement window (equals
  /// measure_instructions unless the trace ended early).
  u64 measured_instructions() const { return measured_instructions_; }

  /// IPC over the measurement window. 0 before the window completes.
  double measured_ipc() const;

  u64 loads() const { return loads_; }
  u64 stores() const { return stores_; }
  /// CPU cycles the core spent stalled on a full load window.
  u64 stall_cycles() const { return stall_ticks_ / sim::kCpuTicksPerCycle; }

  /// One of this core's loads completed (the hierarchy's on_load_done hook
  /// routes here by core id); frees a window slot.
  void on_load_done();

 private:
  void step();
  void schedule_step(Tick when);
  void check_phases();
  void halt();

  sim::Simulator& sim_;
  CoreId id_;
  CoreConfig cfg_;
  trace::TraceSource& trace_;
  cache::CacheHierarchy& caches_;
  PhaseFn on_warmed_up_;
  PhaseFn on_measured_;

  std::optional<trace::TraceRecord> current_;
  Tick cursor_ = 0;  ///< Core-local time: when the last issue completed.
  u64 issued_ = 0;
  u32 outstanding_ = 0;
  bool stalled_ = false;
  bool step_scheduled_ = false;
  bool halted_ = false;
  Tick stall_start_ = 0;
  Tick stall_ticks_ = 0;

  std::optional<Tick> warmup_tick_;
  std::optional<Tick> measure_tick_;
  u64 measured_instructions_ = 0;
  u64 loads_ = 0, stores_ = 0;
};

}  // namespace camps::cpu
