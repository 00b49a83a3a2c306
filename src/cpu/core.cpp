#include "cpu/core.hpp"

#include "common/assert.hpp"

namespace camps::cpu {

Core::Core(sim::Simulator& sim, CoreId id, const CoreConfig& config,
           trace::TraceSource& trace, cache::CacheHierarchy& caches,
           PhaseFn on_warmed_up, PhaseFn on_measured)
    : sim_(sim),
      id_(id),
      cfg_(config),
      trace_(trace),
      caches_(caches),
      on_warmed_up_(std::move(on_warmed_up)),
      on_measured_(std::move(on_measured)) {
  CAMPS_ASSERT(cfg_.issue_width >= 1);
  CAMPS_ASSERT(cfg_.max_outstanding_loads >= 1);
  CAMPS_ASSERT(on_warmed_up_ && on_measured_);
}

void Core::start() {
  cursor_ = sim_.now();
  schedule_step(sim_.now());
}

void Core::schedule_step(Tick when) {
  if (step_scheduled_ || halted_) return;
  step_scheduled_ = true;
  sim_.schedule_at(std::max(when, sim_.now()), sim::Site::kCoreStep, id_,
                   [this] {
    step_scheduled_ = false;
    step();
  });
}

void Core::step() {
  if (halted_) return;
  while (true) {
    if (!current_) {
      current_ = trace_.next();
      if (!current_) {
        halt();
        return;
      }
    }
    const u64 instrs = u64{current_->gap} + 1;
    const u64 cycles = (instrs + cfg_.issue_width - 1) / cfg_.issue_width;
    const Tick issue_at = cursor_ + cycles * sim::kCpuTicksPerCycle;
    if (issue_at > sim_.now()) {
      schedule_step(issue_at);
      return;
    }
    if (current_->type == AccessType::kRead &&
        outstanding_ >= cfg_.max_outstanding_loads) {
      if (!stalled_) {
        stalled_ = true;
        stall_start_ = sim_.now();
      }
      return;  // resumed by on_load_done()
    }

    cursor_ = issue_at;
    issued_ += instrs;
    if (current_->type == AccessType::kRead) {
      ++outstanding_;
      ++loads_;
      caches_.read(id_, current_->addr);
    } else {
      ++stores_;
      caches_.write(id_, current_->addr);
    }
    current_.reset();
    check_phases();
  }
}

void Core::on_load_done() {
  CAMPS_ASSERT(outstanding_ > 0);
  --outstanding_;
  if (stalled_) {
    stalled_ = false;
    stall_ticks_ += sim_.now() - stall_start_;
    // The core was waiting at a window boundary: its local time catches up
    // to the moment the slot freed.
    cursor_ = std::max(cursor_, sim_.now());
    schedule_step(sim_.now());
  }
}

void Core::check_phases() {
  if (!warmup_tick_ && issued_ >= cfg_.warmup_instructions) {
    warmup_tick_ = cursor_;
    on_warmed_up_(id_);
  }
  if (warmup_tick_ && !measure_tick_ &&
      issued_ >= cfg_.warmup_instructions + cfg_.measure_instructions) {
    measure_tick_ = cursor_;
    measured_instructions_ = cfg_.measure_instructions;
    on_measured_(id_);
  }
}

void Core::halt() {
  halted_ = true;
  // A finite trace that ends early still completes the methodology phases
  // so the run can't deadlock waiting for this core.
  if (!warmup_tick_) {
    warmup_tick_ = cursor_;
    on_warmed_up_(id_);
  }
  if (!measure_tick_) {
    measure_tick_ = cursor_;
    measured_instructions_ =
        issued_ > cfg_.warmup_instructions ? issued_ - cfg_.warmup_instructions
                                           : 0;
    on_measured_(id_);
  }
}

double Core::measured_ipc() const {
  if (!measure_tick_ || !warmup_tick_) return 0.0;
  const Tick span = *measure_tick_ - *warmup_tick_;
  if (span == 0) return 0.0;
  const double cycles =
      static_cast<double>(span) / static_cast<double>(sim::kCpuTicksPerCycle);
  return static_cast<double>(measured_instructions_) / cycles;
}

}  // namespace camps::cpu
