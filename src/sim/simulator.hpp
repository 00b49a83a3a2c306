// The simulation executive: owns the event queue and the notion of "now".
//
// Components capture `Simulator&` and call schedule()/schedule_at(), naming
// the scheduling site and their component id (the same-tick order, see
// event_queue.hpp); the system driver calls run() variants. Time only moves
// forward.
#pragma once

#include <array>
#include <functional>

#include "sim/event_queue.hpp"

namespace camps::sim {

class Simulator final {
 public:
  Tick now() const { return now_; }

  /// Schedules `fn` to run `delay` ticks from now, as component `id`'s
  /// event from `site`.
  EventHandle schedule(Tick delay, Site site, u32 id, Event fn);

  /// Schedules `fn` at absolute tick `when`; must be >= now().
  EventHandle schedule_at(Tick when, Site site, u32 id, Event fn);

  /// Removes a pending event; it never runs (see EventQueue::cancel).
  void cancel(EventHandle handle) { queue_.cancel(handle); }

  /// Runs until the queue drains or an event calls stop(). Returns the
  /// number of events executed.
  u64 run();

  /// Runs events with time <= `deadline` until one calls stop(); a stopped
  /// run leaves now() at the stopping event, otherwise now() == deadline if
  /// the queue drained or the next event lies beyond it.
  u64 run_until(Tick deadline);

  /// Ends the current run() or run_until() right after the executing
  /// event; the next run resumes from the following event.
  void stop() { stop_ = true; }

  u64 events_executed() const;
  /// Events executed per scheduling site, indexed by Site.
  const std::array<u64, kSiteCount>& events_by_site() const {
    return by_site_;
  }
  u64 events_cancelled() const { return queue_.cancelled_count(); }
  EventQueue& queue() { return queue_; }

  /// Calls `fn` after every `every_events` executed events (0 disables).
  /// The audit driver hangs its periodic model audits here; the disabled
  /// case costs one predictable branch per event.
  void set_event_hook(u64 every_events, std::function<void()> fn) {
    hook_every_ = fn ? every_events : 0;
    hook_countdown_ = hook_every_;
    hook_ = std::move(fn);
  }

  /// Invariants: time never outruns the earliest pending event, and the
  /// event queue's internal structure holds (delegated).
  void audit(check::AuditReporter& reporter) const;

 private:
  /// Executes events with time <= `deadline` until the queue drains or an
  /// event calls stop(). Returns true if stopped.
  bool run_events(Tick deadline);

  EventQueue queue_;
  Tick now_ = 0;
  std::array<u64, kSiteCount> by_site_{};
  u64 hook_every_ = 0;
  u64 hook_countdown_ = 0;
  std::function<void()> hook_;
  bool stop_ = false;
};

static_assert(check::Auditable<Simulator>);

}  // namespace camps::sim
