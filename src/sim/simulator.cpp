#include "sim/simulator.hpp"

#include "common/assert.hpp"

namespace camps::sim {

EventHandle Simulator::schedule(Tick delay, Site site, u32 id, Event fn) {
  return queue_.schedule(now_ + delay, site, id, fn);
}

EventHandle Simulator::schedule_at(Tick when, Site site, u32 id, Event fn) {
  CAMPS_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  return queue_.schedule(when, site, id, fn);
}

u64 Simulator::events_executed() const {
  u64 total = 0;
  for (const u64 n : by_site_) total += n;
  return total;
}

bool Simulator::run_events(Tick deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    const Site site = queue_.next_site();
    auto [when, fn] = queue_.pop();
    CAMPS_ASSERT(when >= now_);
    now_ = when;
    fn();
    ++by_site_[static_cast<size_t>(site)];
    if (hook_every_ != 0 && --hook_countdown_ == 0) [[unlikely]] {
      hook_countdown_ = hook_every_;
      hook_();
    }
    if (stop_) [[unlikely]] {
      stop_ = false;
      return true;
    }
  }
  return false;
}

u64 Simulator::run() {
  const u64 before = events_executed();
  run_events(kTickNever);
  return events_executed() - before;
}

u64 Simulator::run_until(Tick deadline) {
  const u64 before = events_executed();
  if (!run_events(deadline) && now_ < deadline) now_ = deadline;
  return events_executed() - before;
}

}  // namespace camps::sim
