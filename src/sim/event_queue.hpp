// Discrete-event priority queue.
//
// Events run in (tick, site, component id, sequence) order. Every event
// names the site that scheduled it and the component it belongs to; at one
// tick, what lands (responses, arrivals, data) runs before what acts on it
// (core steps, vault wakes), so same-tick order depends on what runs at
// that tick, not on when each event was scheduled. Insertion order (a
// monotone sequence number) breaks the remaining ties, which makes
// whole-system runs bit-for-bit deterministic regardless of heap internals.
//
// Three hot-path design choices:
//  * Event is a plain value: a trivially copyable capture of at most
//    Event::kInlineCapacity bytes stored inline next to one invoke pointer.
//    Larger captures, and captures that own resources, do not compile, so
//    no event ever allocates, relocates through a function pointer or runs
//    a destructor.
//  * The queue is a key-in-heap index heap: the binary heap holds compact
//    (when, key, slot) entries while the ~100-byte Event payloads sit in a
//    slab addressed by slot. `key` packs site, component id and sequence
//    number into one word, so sifts compare two u64s and move 24-byte POD
//    entries in one contiguous array — no payload moves, no slab pointer
//    chasing — and popped slots are recycled through a free list.
//  * Cancellation is real: a slot-to-heap-position array lets cancel()
//    remove any pending event in O(log n), so superseded timers leave the
//    heap instead of lingering as no-ops until their tick.
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

/// Where an event was scheduled, in same-tick execution order: what lands
/// before what acts on it.
enum class Site : u8 {
  kHostResponse,  ///< A read response reaches the host controller.
  kHostTimeout,   ///< A host read timeout (fault injection only).
  kHostRetry,     ///< The host re-submits a timed-out read.
  kLoadDone,      ///< A cache hit completes a load.
  kMissLaunch,    ///< An L3 miss leaves for memory after its lookup.
  kCoreStep,      ///< A core issues its next trace records.
  kVaultArrival,  ///< A request reaches a vault's ingress.
  kRowCopy,       ///< A row copy lands in a vault's prefetch buffer.
  kReadData,      ///< A read's data is ready to leave its vault.
  kVaultWake,     ///< A vault's scheduler runs.
  kEpochSample,   ///< The epoch sampler takes a snapshot.
};
inline constexpr size_t kSiteCount = 11;
static_assert(static_cast<size_t>(Site::kEpochSample) + 1 == kSiteCount &&
              kSiteCount <= 16);  // the site sits in 4 key bits

/// Stable snake_case name of `site` (the --stats-json key).
const char* site_name(Site site);

/// Largest component id an event may carry (ids sit in 16 key bits).
inline constexpr u32 kMaxComponentId = 0xFFFF;

/// Names one scheduled event so its owner can cancel it. A handle goes
/// stale once its event runs or is cancelled; a default one names nothing.
struct EventHandle {
  static constexpr u32 kNone = ~u32{0};
  u32 slot = kNone;
  u64 key = 0;  ///< The event's unique sort key (see EventQueue).

  explicit operator bool() const { return slot != kNone; }
};

class EventQueue final {
 public:
  /// Schedules `fn` to run at absolute time `when`, ordered among same-tick
  /// events by (site, id) and then insertion. `when` must not precede the
  /// time of the most recently popped event; `id` <= kMaxComponentId.
  EventHandle schedule(Tick when, Site site, u32 id, Event fn);
  /// An untagged event: it ranks as site 0, component 0.
  EventHandle schedule(Tick when, Event fn) {
    return schedule(when, Site::kHostResponse, 0, fn);
  }

  /// Removes the event `handle` names, which must still be pending.
  void cancel(EventHandle handle);
  /// True while the event `handle` names has neither run nor been cancelled.
  bool pending(EventHandle handle) const {
    return handle.slot < pos_.size() && pos_[handle.slot] != kNoPos &&
           heap_[pos_[handle.slot]].key == handle.key;
  }
  /// Pending events of `site` scheduled by component `id` (a linear scan,
  /// for audits).
  size_t pending_count(Site site, u32 id) const;

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  Tick next_time() const;
  /// Site of the earliest pending event. Requires !empty().
  Site next_site() const;

  /// Pops and returns the earliest event. Requires !empty().
  std::pair<Tick, Event> pop();

  /// Total events ever scheduled (for stats / tests).
  u64 scheduled_count() const { return next_seq_; }
  /// Total events ever cancelled.
  u64 cancelled_count() const { return cancelled_; }

  void clear();

  /// Invariants: the heap is a valid min-heap over (when, key); the in-heap
  /// slots and the free list exactly partition the slab; every in-heap slot
  /// holds a live event and every free slot an empty one; the position array
  /// locates each in-heap slot and marks free ones; sequence numbers are
  /// distinct and below next_seq_.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// `key` layout, high to low: site (4 bits), component id (16 bits),
  /// sequence number (44 bits — 1.7e13 events).
  static constexpr unsigned kSeqBits = 44;
  static constexpr unsigned kIdShift = kSeqBits;
  static constexpr unsigned kSiteShift = kSeqBits + 16;
  static constexpr u64 kSeqMask = (u64{1} << kSeqBits) - 1;

  /// Heap node: the full sort key plus the slab slot of the payload. Keeping
  /// the key here (instead of dereferencing the slab in the comparator) keeps
  /// sift traffic inside one contiguous, trivially-movable array.
  struct HeapEntry {
    Tick when;
    u64 key;  ///< site | id | seq, see kSeqBits.
    u32 slot;
  };
  static_assert(sizeof(HeapEntry) == 24);

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.key < b.key;
  }

  static constexpr u32 kNoPos = ~u32{0};

  /// Writes `entry` to heap_[i] and records where its slot now sits.
  void place(size_t i, const HeapEntry& entry) {
    heap_[i] = entry;
    pos_[entry.slot] = static_cast<u32>(i);
  }
  /// Frees heap_[i]'s slot and restores the heap over the remaining entries.
  void erase_at(size_t i);
  void sift_up(size_t i);
  void sift_down(size_t i);

  std::vector<Event> slab_;      ///< Payloads, addressed by HeapEntry::slot.
  std::vector<u32> pos_;         ///< Heap index of each slot, or kNoPos.
  std::vector<HeapEntry> heap_;  ///< Min-heap keyed (when, key).
  std::vector<u32> free_;        ///< Recycled slab slots.
  u64 next_seq_ = 0;
  u64 cancelled_ = 0;
};

static_assert(check::Auditable<EventQueue>);

}  // namespace camps::sim
