// Discrete-event priority queue.
//
// Events at equal ticks execute in insertion order (a monotone sequence
// number breaks heap ties), which makes whole-system runs bit-for-bit
// deterministic regardless of heap internals.
//
// Two hot-path design choices:
//  * Event is a plain value: a trivially copyable capture of at most
//    Event::kInlineCapacity bytes stored inline next to one invoke pointer.
//    Larger captures, and captures that own resources, do not compile, so
//    no event ever allocates, relocates through a function pointer or runs
//    a destructor.
//  * The queue is a key-in-heap index heap: the binary heap holds compact
//    (when, seq, slot) entries while the ~100-byte Event payloads sit in a
//    slab addressed by slot. Sifts compare and move 24-byte POD entries in
//    one contiguous array — no payload moves, no slab pointer chasing — and
//    popped slots are recycled through a free list.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "common/types.hpp"

namespace camps::sim {

/// A `void()` callable stored inline: the capture's bytes plus one invoke
/// pointer. Copying an Event copies those bytes; there is nothing to free.
class Event {
 public:
  /// Sized to the largest scheduling capture in the simulator (HmcDevice
  /// forwards a MemRequest + DecodedAddr + tick = 80 bytes).
  static constexpr size_t kInlineCapacity = 88;

  Event() = default;

  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, Event> && std::is_invocable_r_v<void, Fn&> &&
             std::is_trivially_copyable_v<Fn> &&
             std::is_trivially_destructible_v<Fn> &&
             sizeof(Fn) <= kInlineCapacity &&
             alignof(Fn) <= alignof(std::max_align_t))
  Event(F&& f) {  // NOLINT(google-explicit-constructor): functor adaptor
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
  }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void reset() { invoke_ = nullptr; }

  /// Events never spill to the heap; kept for callers that report the
  /// spill count as a metric.
  static constexpr u64 heap_allocation_count() { return 0; }

 private:
  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  void (*invoke_)(void*) = nullptr;
};

static_assert(std::is_trivially_copyable_v<Event>);

class EventQueue final {
 public:
  /// Schedules `fn` to run at absolute time `when`. `when` must not precede
  /// the time of the most recently popped event.
  void schedule(Tick when, Event fn);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  Tick next_time() const;

  /// Pops and returns the earliest event. Requires !empty().
  std::pair<Tick, Event> pop();

  /// Total events ever scheduled (for stats / tests).
  u64 scheduled_count() const { return next_seq_; }

  void clear();

  /// Invariants: the heap is a valid min-heap over (when, seq); the in-heap
  /// slots and the free list exactly partition the slab; every in-heap slot
  /// holds a live event and every free slot an empty one; sequence numbers
  /// are distinct and below next_seq_.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// Heap node: the full sort key plus the slab slot of the payload. Keeping
  /// the key here (instead of dereferencing the slab in the comparator) keeps
  /// sift traffic inside one contiguous, trivially-movable array.
  struct HeapEntry {
    Tick when;
    u64 seq;
    u32 slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void sift_up(size_t i);
  void sift_down(size_t i);

  std::vector<Event> slab_;      ///< Payloads, addressed by HeapEntry::slot.
  std::vector<HeapEntry> heap_;  ///< Min-heap keyed (when, seq).
  std::vector<u32> free_;        ///< Recycled slab slots.
  u64 next_seq_ = 0;
};

static_assert(check::Auditable<EventQueue>);

}  // namespace camps::sim
