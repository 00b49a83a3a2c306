// Prefetch-buffer replacement policies.
//
// The paper compares two: classic LRU (used by BASE/BASE-HIT/MMD/CAMPS) and
// the utilization+recency policy of Section 3.2 (CAMPS-MOD). pick_victim()
// sees a snapshot of the resident rows and returns the victim's slot.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace camps::prefetch {

enum class Replacement : u8 {
  /// Least-recently-used: evicts the candidate with minimum recency.
  kLru,
  /// Section 3.2 policy:
  ///   1. if any row has had ALL its distinct lines referenced, evict it
  ///      (its data has already been shipped to the processor); ties broken
  ///      by lowest recency;
  ///   2. otherwise evict the row with minimum (utilization + recency);
  ///   3. ties broken by lowest utilization, then lowest recency, then slot.
  kUtilizationRecency,
};

/// What a policy may inspect about each resident row.
struct VictimCandidate {
  u32 slot = 0;        ///< Row's place in the buffer (returned as the victim).
  u32 utilization = 0; ///< Distinct lines referenced since insertion.
  u32 recency = 0;     ///< Paper encoding: MRU = entries-1, LRU = 0.
  bool fully_used = false;  ///< All distinct lines referenced.
};

/// Picks the victim's slot among `candidates` (never empty). Deterministic.
u32 pick_victim(Replacement policy,
                const std::vector<VictimCandidate>& candidates);

}  // namespace camps::prefetch
