#include "sim/event_queue.hpp"

#include "common/assert.hpp"

namespace camps::sim {

const char* site_name(Site site) {
  switch (site) {
    case Site::kHostResponse: return "host_response";
    case Site::kHostTimeout: return "host_timeout";
    case Site::kHostRetry: return "host_retry";
    case Site::kLoadDone: return "load_done";
    case Site::kMissLaunch: return "miss_launch";
    case Site::kCoreStep: return "core_step";
    case Site::kVaultArrival: return "vault_arrival";
    case Site::kRowCopy: return "row_copy";
    case Site::kReadData: return "read_data";
    case Site::kVaultWake: return "vault_wake";
    case Site::kEpochSample: return "epoch_sample";
  }
  return "unknown";
}

EventHandle EventQueue::schedule(Tick when, Site site, u32 id, Event fn) {
  CAMPS_ASSERT(id <= kMaxComponentId && next_seq_ <= kSeqMask);
  u32 slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = fn;
  } else {
    slot = static_cast<u32>(slab_.size());
    slab_.push_back(fn);
    pos_.push_back(kNoPos);
  }
  const u64 key = (u64{static_cast<u8>(site)} << kSiteShift) |
                  (u64{id} << kIdShift) | next_seq_++;
  heap_.push_back(HeapEntry{when, key, slot});
  sift_up(heap_.size() - 1);
  return EventHandle{slot, key};
}

void EventQueue::cancel(EventHandle handle) {
  CAMPS_ASSERT_MSG(pending(handle),
                   "cancel of an event that already ran or was cancelled");
  erase_at(pos_[handle.slot]);
  ++cancelled_;
}

Tick EventQueue::next_time() const {
  CAMPS_ASSERT(!heap_.empty());
  return heap_.front().when;
}

Site EventQueue::next_site() const {
  CAMPS_ASSERT(!heap_.empty());
  return static_cast<Site>(heap_.front().key >> kSiteShift);
}

std::pair<Tick, Event> EventQueue::pop() {
  CAMPS_ASSERT(!heap_.empty());
  const HeapEntry& top = heap_.front();
  std::pair<Tick, Event> out{top.when, slab_[top.slot]};
  erase_at(0);
  return out;
}

void EventQueue::erase_at(size_t i) {
  const u32 slot = heap_[i].slot;
  slab_[slot].reset();  // a free slot holds no event (audit: slot-leak)
  pos_[slot] = kNoPos;
  free_.push_back(slot);
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the erased entry was the last one
  place(i, last);
  if (i > 0 && earlier(last, heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void EventQueue::clear() {
  heap_.clear();
  slab_.clear();
  pos_.clear();
  free_.clear();
}

void EventQueue::sift_up(size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventQueue::sift_down(size_t i) {
  const HeapEntry entry = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    const size_t right = child + 1;
    if (right < n && earlier(heap_[right], heap_[child])) child = right;
    if (!earlier(heap_[child], entry)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, entry);
}

}  // namespace camps::sim
