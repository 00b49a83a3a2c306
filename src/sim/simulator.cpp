#include "sim/simulator.hpp"

#include "common/assert.hpp"

namespace camps::sim {

void Simulator::schedule(Tick delay, Event fn) {
  queue_.schedule(now_ + delay, fn);
}

void Simulator::schedule_at(Tick when, Event fn) {
  CAMPS_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  queue_.schedule(when, fn);
}

bool Simulator::run_events(Tick deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    auto [when, fn] = queue_.pop();
    CAMPS_ASSERT(when >= now_);
    now_ = when;
    fn();
    ++executed_;
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
  const u64 before = executed_;
  run_events(kTickNever);
  return executed_ - before;
}

u64 Simulator::run_until(Tick deadline) {
  const u64 before = executed_;
  if (!run_events(deadline) && now_ < deadline) now_ = deadline;
  return executed_ - before;
}

}  // namespace camps::sim
