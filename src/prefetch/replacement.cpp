#include "prefetch/replacement.hpp"

#include <vector>

#include "common/assert.hpp"

namespace camps::prefetch {

u32 pick_victim(Replacement policy,
                const std::vector<VictimCandidate>& candidates) {
  CAMPS_ASSERT(!candidates.empty());

  if (policy == Replacement::kLru) {
    const VictimCandidate* best = &candidates.front();
    for (const auto& c : candidates) {
      if (c.recency < best->recency) best = &c;
    }
    return best->slot;
  }

  // Step 1: a fully-consumed row leaves first.
  const VictimCandidate* full = nullptr;
  for (const auto& c : candidates) {
    if (!c.fully_used) continue;
    if (full == nullptr || c.recency < full->recency) full = &c;
  }
  if (full != nullptr) return full->slot;

  // Step 2: minimum utilization + recency; ties prefer lower utilization.
  const VictimCandidate* best = &candidates.front();
  auto better = [](const VictimCandidate& a, const VictimCandidate& b) {
    const u64 sa = u64{a.utilization} + a.recency;
    const u64 sb = u64{b.utilization} + b.recency;
    if (sa != sb) return sa < sb;
    if (a.utilization != b.utilization) return a.utilization < b.utilization;
    if (a.recency != b.recency) return a.recency < b.recency;
    return a.slot < b.slot;
  };
  for (const auto& c : candidates) {
    if (better(c, *best)) best = &c;
  }
  return best->slot;
}

}  // namespace camps::prefetch
