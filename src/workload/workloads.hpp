// Table II: the paper's twelve eight-core multiprogrammed workloads.
//
// HM sets draw only from the high-memory-intensity benchmarks (MPKI >= 20),
// LM sets from the low-intensity ones (1 <= MPKI < 20), and MX sets mix
// four of each. The benchmark orderings below are transcribed verbatim from
// Table II (core 0 runs the first name, core 7 the last).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "trace/spec_profiles.hpp"

namespace camps::workload {

enum class WorkloadClass : u8 { kHM, kLM, kMX };

inline const char* to_string(WorkloadClass c) {
  switch (c) {
    case WorkloadClass::kHM: return "HM";
    case WorkloadClass::kLM: return "LM";
    case WorkloadClass::kMX: return "MX";
  }
  return "?";
}

inline constexpr u32 kCoresPerWorkload = 8;

struct Workload {
  std::string id;                                    ///< "HM1" ... "MX4"
  WorkloadClass cls;
  std::array<std::string, kCoresPerWorkload> benchmarks;

  /// Builds the eight per-core trace sources. Repeated benchmarks within
  /// the mix receive distinct seeds (and therefore distinct phases), as two
  /// copies of a SPEC binary would run distinct inputs.
  std::vector<std::unique_ptr<trace::TraceSource>> make_sources(
      u64 seed, const trace::PatternGeometry& geom) const;
};

/// All twelve workloads of Table II, in paper order.
const std::vector<Workload>& table2_workloads();

/// Lookup by id ("HM1", "MX3", ...). Throws std::out_of_range listing the
/// valid ids when unknown.
const Workload& workload(const std::string& id);

}  // namespace camps::workload
