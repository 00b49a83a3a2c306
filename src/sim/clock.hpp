// Clock-domain arithmetic.
//
// Global simulation time (Tick) is an integer count of 1/24-ns quanta. That
// quantum is the largest one in which both clocks of Table I are integral:
//
//   CPU   3 GHz      -> period 1/3 ns  =  8 ticks
//   DRAM  800 MHz    -> period 5/4 ns  = 30 ticks   (DDR3-1600 command clock)
//
// Using an integral quantum keeps every cross-domain conversion exact, so
// simulations are deterministic and phase relationships never drift.
// Serial-link serialization times (12.5 Gbps lanes) are not integral in this
// quantum; the link model rounds each packet's serialization latency up to
// whole ticks, which under-reports link bandwidth by < 3% worst case and is
// documented in hmc/serial_link.hpp.
#pragma once

#include "common/types.hpp"

namespace camps::sim {

/// Simulation quanta per nanosecond.
inline constexpr u64 kTicksPerNs = 24;

/// CPU clock: 3 GHz.
inline constexpr u64 kCpuTicksPerCycle = 8;

/// DRAM command clock: 800 MHz (DDR3-1600).
inline constexpr u64 kDramTicksPerCycle = 30;

static_assert(kCpuTicksPerCycle * 3 == kTicksPerNs,       // 3 GHz
              "CPU clock must be exactly 3 GHz in the tick quantum");
static_assert(kDramTicksPerCycle * 4 == kTicksPerNs * 5,  // 800 MHz
              "DRAM clock must be exactly 800 MHz in the tick quantum");

/// The first edge at or after `tick` of a clock with period
/// `ticks_per_cycle` anchored at tick 0.
constexpr Tick next_edge(Tick tick, u64 ticks_per_cycle) {
  const Tick rem = tick % ticks_per_cycle;
  return rem == 0 ? tick : tick + (ticks_per_cycle - rem);
}

}  // namespace camps::sim
