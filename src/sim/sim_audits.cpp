// Cold-path audit() definitions for the event queue and simulator
// (contract: check/audit.hpp; invariant catalog: docs/static_analysis.md).
// Kept out of the hot translation units so the audit code — which runs
// every N-hundred-thousand events, or never — does not dilute their .text.

#include <set>
#include <string>

#include "check/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace camps {

void sim::EventQueue::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "event_queue");

  // Heap shape: every node sorts no earlier than its parent.
  for (size_t i = 1; i < heap_.size(); ++i) {
    const size_t parent = (i - 1) / 2;
    rep.expect(!earlier(heap_[i], heap_[parent]), "heap-order",
               "heap[" + std::to_string(i) + "] (when=" +
                   std::to_string(heap_[i].when) + ", key=" +
                   std::to_string(heap_[i].key) +
                   ") sorts earlier than its parent heap[" +
                   std::to_string(parent) + "] (when=" +
                   std::to_string(heap_[parent].when) + ", key=" +
                   std::to_string(heap_[parent].key) + ")");
  }

  // Slab partition: heap slots and free slots are disjoint, in range, and
  // together cover the slab exactly once.
  rep.expect(heap_.size() + free_.size() == slab_.size(), "slab-partition",
             "heap (" + std::to_string(heap_.size()) + ") + free list (" +
                 std::to_string(free_.size()) + ") != slab size (" +
                 std::to_string(slab_.size()) + ")");
  rep.expect(pos_.size() == slab_.size(), "slot-position",
             "position array covers " + std::to_string(pos_.size()) +
                 " slots, slab holds " + std::to_string(slab_.size()));
  std::set<u32> seen_slots;
  std::set<u64> seen_seqs;
  for (size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry& entry = heap_[i];
    if (!rep.expect(entry.slot < slab_.size() && entry.slot < pos_.size(),
                    "slot-range",
                    "heap entry references slot " +
                        std::to_string(entry.slot) + " outside slab of " +
                        std::to_string(slab_.size()))) {
      continue;
    }
    // cancel() finds an event through pos_; a wrong entry would remove
    // some other event.
    rep.expect(pos_[entry.slot] == i, "slot-position",
               "slot " + std::to_string(entry.slot) + " sits at heap[" +
                   std::to_string(i) + "] but its position reads " +
                   std::to_string(pos_[entry.slot]));
    rep.expect(seen_slots.insert(entry.slot).second, "slot-duplicate",
               "slot " + std::to_string(entry.slot) +
                   " appears twice in the heap");
    rep.expect(static_cast<bool>(slab_[entry.slot]), "slot-live",
               "in-heap slot " + std::to_string(entry.slot) +
                   " holds an empty event");
    // The key's low bits are the sequence number; site and id sit above.
    const u64 seq = entry.key & kSeqMask;
    rep.expect(seq < next_seq_, "seq-range",
               "heap seq " + std::to_string(seq) + " >= next_seq " +
                   std::to_string(next_seq_));
    rep.expect(seen_seqs.insert(seq).second, "seq-duplicate",
               "sequence number " + std::to_string(seq) +
                   " appears twice (tie-break order would be ambiguous)");
  }
  for (const u32 slot : free_) {
    if (!rep.expect(slot < slab_.size(), "slot-range",
                    "free-list slot " + std::to_string(slot) +
                        " outside slab of " + std::to_string(slab_.size()))) {
      continue;
    }
    rep.expect(seen_slots.insert(slot).second, "slot-duplicate",
               "slot " + std::to_string(slot) +
                   " is both in the heap and on the free list (or listed "
                   "free twice)");
    rep.expect(!static_cast<bool>(slab_[slot]), "slot-leak",
               "free slot " + std::to_string(slot) +
                   " still holds a live event");
    if (slot < pos_.size()) {
      rep.expect(pos_[slot] == kNoPos, "slot-position",
                 "free slot " + std::to_string(slot) +
                     " still has heap position " + std::to_string(pos_[slot]));
    }
  }
}

size_t sim::EventQueue::pending_count(Site site, u32 id) const {
  const u64 tag = (u64{static_cast<u8>(site)} << kSiteShift) |
                  (u64{id} << kIdShift);
  size_t count = 0;
  for (const HeapEntry& entry : heap_) {
    if ((entry.key & ~kSeqMask) == tag) ++count;
  }
  return count;
}

void sim::Simulator::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "sim");
  if (!queue_.empty()) {
    rep.expect(now_ <= queue_.next_time(), "time-monotone",
               "now (" + std::to_string(now_) +
                   ") is past the earliest pending event (" +
                   std::to_string(queue_.next_time()) + ")");
  }
  queue_.audit(rep);
}

}  // namespace camps
