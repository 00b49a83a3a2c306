#include "sim/event_queue.hpp"

#include "common/assert.hpp"

namespace camps::sim {

void EventQueue::schedule(Tick when, Event fn) {
  u32 slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = fn;
  } else {
    slot = static_cast<u32>(slab_.size());
    slab_.push_back(fn);
  }
  heap_.push_back(HeapEntry{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

Tick EventQueue::next_time() const {
  CAMPS_ASSERT(!heap_.empty());
  return heap_.front().when;
}

std::pair<Tick, Event> EventQueue::pop() {
  CAMPS_ASSERT(!heap_.empty());
  const HeapEntry top = heap_.front();
  std::pair<Tick, Event> out{top.when, slab_[top.slot]};
  slab_[top.slot].reset();  // a free slot holds no event (audit: slot-leak)
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  free_.push_back(top.slot);
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  slab_.clear();
  free_.clear();
}

void EventQueue::sift_up(size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
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
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

}  // namespace camps::sim
