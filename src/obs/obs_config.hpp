// Observability configuration carried by SystemConfig / ExperimentConfig.
#pragma once

#include "common/types.hpp"

namespace camps::obs {

/// Span ring capacity the front ends arm when a trace file is asked for
/// without --trace-cap. 16 Ki spans ≈ 0.5 MB per System — bounded even
/// across a 60-run figure sweep with every run traced.
inline constexpr u32 kDefaultTraceCapacity = 16 * 1024;

struct ObsConfig {
  /// Span ring capacity per System; 0 (the default) leaves the recorder
  /// disabled (--trace-out arms it).
  u32 trace_capacity = 0;
  /// Epoch sampling interval in ticks; 0 disables the sampler. 2 M ticks ≈
  /// 83 µs of simulated time ≈ a few hundred samples on a bench-scale run.
  Tick epoch_ticks = 0;
};

}  // namespace camps::obs
