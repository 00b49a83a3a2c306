#include "hmc/vault_controller.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "common/assert.hpp"
#include "prefetch/scheme_camps.hpp"

namespace camps::hmc {

using dram::RowBufferOutcome;
using energy::EnergyEvent;

namespace {

/// This vault's registry name for `leaf` ("vault7.rb_hit").
std::string vault_stat(VaultId id, const char* leaf) {
  return "vault" + std::to_string(id) + "." + leaf;
}

}  // namespace

VaultController::VaultController(
    sim::Simulator& sim, VaultId id, u32 banks, const VaultConfig& config,
    std::unique_ptr<prefetch::PrefetchScheme> scheme,
    energy::EnergyModel& energy, StatRegistry& stats, RespondFn respond,
    obs::TraceRecorder& trace)
    : sim_(sim),
      id_(id),
      cfg_(config),
      banks_(),
      buffer_(config.buffer, scheme->replacement()),
      scheme_(std::move(scheme)),
      refresh_(cfg_.timing, cfg_.refresh_enabled),
      energy_(energy),
      trace_(trace),
      respond_(std::move(respond)),
      c_rb_hit_(stats.counter(vault_stat(id, "rb_hit"))),
      c_rb_empty_(stats.counter(vault_stat(id, "rb_empty"))),
      c_rb_conflict_(stats.counter(vault_stat(id, "rb_conflict"))),
      c_buf_hit_(stats.counter(vault_stat(id, "buffer_hit"))),
      c_prefetch_(stats.counter(vault_stat(id, "prefetch_issued"))),
      h_queue_wait_(stats.histogram(vault_stat(id, "queue_wait_cycles"),
                                    /*bucket_width=*/8, /*num_buckets=*/64)),
      // Shared across vaults: the registry hands back the same histogram
      // for every vault, so these aggregate device-wide.
      h_lat_vault_queue_(stats.histogram("latency.vault_queue_cycles",
                                         /*bucket_width=*/16,
                                         /*num_buckets=*/128)),
      h_lat_bank_service_(stats.histogram("latency.bank_service_cycles",
                                          /*bucket_width=*/8,
                                          /*num_buckets=*/64)),
      h_lat_buffer_hit_(stats.histogram("latency.buffer_hit_cycles",
                                        /*bucket_width=*/2,
                                        /*num_buckets=*/32)) {
  CAMPS_ASSERT(banks > 0 && banks <= 32);  // scheduler bank bitmask
  CAMPS_ASSERT(cfg_.read_queue > 0 && cfg_.write_queue > 0);
  CAMPS_ASSERT(cfg_.write_drain_low < cfg_.write_drain_high);
  CAMPS_ASSERT(cfg_.write_drain_high <= cfg_.write_queue);
  banks_.reserve(banks);
  for (u32 b = 0; b < banks; ++b) {
    banks_.emplace_back(cfg_.timing, trace_, id_ * banks + b);
  }
  open_row_refs_.resize(banks);
  buffer_hit_ticks_ = cfg_.buffer.hit_latency * sim::kCpuTicksPerCycle;
}

void VaultController::reset_stats() {
  n_reads_ = n_writes_ = 0;
  n_degrade_flushes_ = 0;
  buffer_.reset_stats();
}

void VaultController::degrade_flush() {
  // Drop prefetch work that has not yet touched a bank. Actions whose row
  // copy is already issued keep running: their complete_fetch events are
  // in flight and will insert into the (now empty) buffer harmlessly.
  std::erase_if(actions_,
                [](const PfAction& action) { return !action.fetch_issued; });
  // Evict everything with the normal bookkeeping so usefulness accounting
  // and dirty writebacks stay consistent with ordinary evictions.
  for (const prefetch::EvictedRow& victim : buffer_.flush()) {
    scheme_->on_prefetch_evicted(victim.id, victim.referenced);
    if (victim.dirty) energy_.add(EnergyEvent::kRowWriteback);
  }
  scheme_->on_fault_flush();
  ++n_degrade_flushes_;
  schedule_wake_at_cycle(cycle_of(sim_.now()));
}

void VaultController::receive(const MemRequest& request,
                              const DecodedAddr& addr, Tick now) {
  CAMPS_ASSERT(addr.vault == id_);
  QueueEntry entry;
  entry.req = request;
  entry.bank = addr.bank;
  entry.row = addr.row;
  entry.column = addr.column;
  entry.enqueue_cycle = cycle_of(now);
  ingress_.push_back(entry);
  schedule_wake_at_cycle(
      cycle_of(sim::next_edge(now, sim::kDramTicksPerCycle)));
}

bool VaultController::idle() const {
  return ingress_.empty() && rdq_.empty() && wrq_.empty() &&
         actions_.empty() && inflight_ == 0;
}

void VaultController::schedule_wake_at_cycle(u64 cycle) {
  Tick when = tick_of(cycle);
  if (when < sim_.now()) {
    when = sim::next_edge(sim_.now(), sim::kDramTicksPerCycle);
  }
  // One wake is pending at a time: an earlier one replaces it (an idle
  // vault parks its wake at the refresh deadline), a later one is moot.
  // A running wake still counts as pending, so a flush it triggers adds no
  // second wake at its own edge.
  if (when >= next_wake_tick_) return;
  if (next_wake_tick_ != kTickNever) sim_.cancel(wake_event_);
  next_wake_tick_ = when;
  wake_event_ = sim_.schedule_at(when, sim::Site::kVaultWake, id_,
                                 [this] { wake(); });
}

bool VaultController::has_work() const {
  return !ingress_.empty() || !rdq_.empty() || !wrq_.empty() ||
         !actions_.empty() || refresh_draining_;
}

u64 VaultController::next_change(u64 cycle) const {
  const auto& t = cfg_.timing;
  u64 next = kTickNever;
  auto consider = [&](u64 at) {
    if (at > cycle) next = std::min(next, at);
  };
  for (const dram::Bank& bank : banks_) consider(bank.next_change(cycle));
  consider(next_act_cycle_);
  consider(act_window_[act_window_pos_]);
  // A column may issue once its data start (cycle + tCL/tWL) clears the bus.
  consider(bus_free_cycle_ - std::min<u64>(bus_free_cycle_, t.tCL));
  consider(bus_free_cycle_ - std::min<u64>(bus_free_cycle_, t.tWL));
  consider(refresh_.next_due());
  consider(refresh_.busy_until());
  for (const PfAction& action : actions_) {
    consider(action.fetch_issued
                 ? action.fetch_done_cycle
                 : action.created_cycle + kPrefetchAgingCycles);
  }
  return next;
}

void VaultController::schedule_next_wake(u64 cycle, bool progressed) {
  next_wake_tick_ = kTickNever;  // the running wake is over
  if (has_work()) {
    // A wake that changed nothing would repeat itself every cycle until a
    // polled threshold passes; sleep to it instead. A read blocked in
    // ingress re-probes the buffer (a counted miss) each cycle, so it
    // keeps the vault polling.
    const u64 next = progressed || !ingress_.empty() ? cycle + 1
                                                     : next_change(cycle);
    schedule_wake_at_cycle(next == kTickNever ? cycle + 1 : next);
  } else if (cfg_.refresh_enabled) {
    // Sleep until the next refresh deadline so rows do not silently skip
    // retention maintenance during idle phases.
    schedule_wake_at_cycle(std::max(cycle + 1, refresh_.next_due()));
  }
}

void VaultController::wake() {
  const u64 cycle = cycle_of(sim_.now());
  const Progress before = progress();
  admit_ingress(cycle);
  // Priority: refresh integrity, then demand data (row hits), then pending
  // row copies (so a CAMPS fetch+precharge lands before another demand
  // reopens the bank), then demand PRE/ACT progress.
  bool used_slot = refresh_step(cycle);
  // While draining for refresh, nothing else may issue — demand ACTs would
  // keep reopening banks and the drain would never converge.
  if (!refresh_draining_) {
    // Aged prefetch work jumps ahead of demand columns once: a copy that
    // lands after its stream has moved on is pure waste.
    bool aged = false;
    for (const auto& action : actions_) {
      if (!action.fetch_issued &&
          cycle >= action.created_cycle + kPrefetchAgingCycles) {
        aged = true;
        break;
      }
    }
    if (aged && !used_slot) used_slot = issue_prefetch(cycle);
    if (!used_slot) used_slot = issue_demand_column(cycle);
    if (!used_slot) used_slot = issue_prefetch(cycle);
    if (!used_slot) used_slot = advance_demand_bank(cycle);
  }
  schedule_next_wake(cycle, used_slot || progress() != before);
}

bool VaultController::serve_from_buffer(const QueueEntry& entry, u64 cycle,
                                        bool count_miss) {
  const BankRow key{entry.bank, entry.row};
  const auto stamp = buffer_.insert_stamp(key);
  if (!stamp) {
    if (count_miss) buffer_.count_miss();
    return false;
  }
  // A request that was already waiting when the row landed is a demand the
  // copy happened to serve, not something the prefetch anticipated: it
  // counts toward utilization but not usefulness.
  const bool predates_insert = entry.enqueue_cycle < *stamp;
  buffer_.access(key, entry.column, entry.req.type,
                 /*fill_touch=*/predates_insert);
  c_buf_hit_.inc();
  energy_.add(EnergyEvent::kBufferAccess);
  h_lat_buffer_hit_.sample(cfg_.buffer.hit_latency);
  h_lat_vault_queue_.sample(
      cpu_cycles_of_dram(cycle - std::min(cycle, entry.enqueue_cycle)));
  trace_.record(obs::Stage::kBufferHit, id_, entry.req.id, tick_of(cycle),
                tick_of(cycle) + buffer_hit_ticks_);
  if (entry.req.type == AccessType::kRead) {
    respond_(entry.req, tick_of(cycle) + buffer_hit_ticks_);
  }
  return true;
}

void VaultController::admit_ingress(u64 cycle) {
  while (!ingress_.empty()) {
    QueueEntry& entry = ingress_.front();
    if (serve_from_buffer(entry, cycle, /*count_miss=*/true)) {
      ingress_.pop_front();
      continue;
    }
    auto& queue = entry.req.type == AccessType::kRead ? rdq_ : wrq_;
    const u32 limit = entry.req.type == AccessType::kRead ? cfg_.read_queue
                                                          : cfg_.write_queue;
    if (queue.size() >= limit) break;  // backpressure: wait in ingress
    queue.push_back(entry);
    ingress_.pop_front();
  }
}

bool VaultController::refresh_step(u64 cycle) {
  if (!cfg_.refresh_enabled) return false;
  if (!refresh_draining_ && refresh_.due(cycle) &&
      !refresh_.in_progress(cycle)) {
    refresh_draining_ = true;
  }
  if (!refresh_draining_) return false;

  // Close any open bank, one PRE per cycle.
  for (auto& bank : banks_) {
    const dram::BankState s = bank.state(cycle);
    if (s == dram::BankState::kActive || s == dram::BankState::kActivating) {
      if (bank.earliest_precharge(cycle) == cycle) {
        bank.precharge(cycle);
        energy_.add(EnergyEvent::kPrecharge);
        return true;
      }
      return false;  // must wait for this bank's timing
    }
    if (s == dram::BankState::kPrecharging) return false;  // settle first
  }

  // All banks precharged: launch the all-bank refresh.
  for (auto& bank : banks_) bank.refresh(cycle);
  refresh_.start(cycle);
  energy_.add(EnergyEvent::kRefresh);
  refresh_draining_ = false;
  return true;
}

u32 VaultController::queued_same_row(const QueueEntry& entry) const {
  u32 count = 0;
  for (const auto& other : rdq_) {
    if (other.req.id == entry.req.id) continue;
    if (other.bank == entry.bank && other.row == entry.row) ++count;
  }
  return count;
}

void VaultController::classify_if_new(QueueEntry& entry, u64 cycle) {
  if (entry.started) return;
  entry.started = true;
  entry.outcome = banks_[entry.bank].classify(cycle, entry.row);
  switch (entry.outcome) {
    case RowBufferOutcome::kHit:
      c_rb_hit_.inc();
      break;
    case RowBufferOutcome::kEmpty:
      c_rb_empty_.inc();
      break;
    case RowBufferOutcome::kConflict:
      c_rb_conflict_.inc();
      break;
  }
}

void VaultController::apply_decision(
    const prefetch::PrefetchDecision& decision, const QueueEntry& entry) {
  if (!decision.any()) return;
  auto enqueue_action = [this](BankId bank, RowId row, bool precharge_after) {
    if (buffer_.contains(BankRow{bank, row})) return;
    // Duplicate suppression against already-queued actions.
    for (const auto& action : actions_) {
      if (action.bank == bank && action.row == row) return;
    }
    actions_.push_back(PfAction{.bank = bank,
                                .row = row,
                                .precharge_after = precharge_after,
                                .fetch_issued = false,
                                .fetch_done_cycle = 0,
                                .created_cycle = cycle_of(sim_.now())});
  };
  if (decision.fetch_row) {
    enqueue_action(entry.bank, entry.row, decision.precharge_after);
  }
  for (RowId extra : decision.extra_rows) {
    enqueue_action(entry.bank, extra, false);
  }
}

void VaultController::note_row_reference(BankId bank, RowId row,
                                         LineId line) {
  auto& refs = open_row_refs_[bank];
  if (refs.row != row) refs = OpenRowRefs{row, 0};
  refs.bitmap |= u64{1} << line;
}

u64 VaultController::row_reference_bitmap(BankId bank, RowId row) const {
  const auto& refs = open_row_refs_[bank];
  return refs.row == row ? refs.bitmap : 0;
}

void VaultController::serve_via_fetch(const QueueEntry& entry, u64 cycle,
                                      bool precharge_after) {
  dram::Bank& bank = banks_[entry.bank];
  const u64 done = bank.fetch_row(cycle, entry.req.id);
  energy_.add(EnergyEvent::kRowFetch);

  const BankId b = entry.bank;
  const RowId row = entry.row;
  const LineId line = entry.column;
  const AccessType type = entry.req.type;
  note_row_reference(b, row, line);
  const u64 seed = row_reference_bitmap(b, row);
  sim_.schedule_at(tick_of(done), sim::Site::kRowCopy, id_,
                   [this, b, row, line, type, seed, cycle] {
    complete_fetch(b, row, seed, cycle);
    // The demanded line is consumed out of the freshly landed row; it was
    // demanded, not prefetched, so it does not count toward usefulness.
    buffer_.access(BankRow{b, row}, line, type, /*fill_touch=*/true);
  });
  if (entry.req.type == AccessType::kRead) {
    ++n_reads_;
    ++inflight_;
    const MemRequest req = entry.req;
    const Tick ready = tick_of(done) + buffer_hit_ticks_;
    sim_.schedule_at(ready, sim::Site::kReadData, id_, [this, req, ready] {
      --inflight_;
      respond_(req, ready);
    });
  } else {
    ++n_writes_;
  }
  if (precharge_after) {
    actions_.push_back(PfAction{.bank = entry.bank,
                                .row = entry.row,
                                .precharge_after = true,
                                .fetch_issued = true,
                                .fetch_done_cycle = done,
                                .created_cycle = cycle});
  }
}

bool VaultController::issue_demand_column(u64 cycle) {
  update_drain_mode();
  auto& queue = draining_writes_ ? wrq_ : rdq_;
  if (queue.empty()) return false;

  // Re-check the prefetch buffer: rows may have landed since enqueue.
  for (auto it = queue.begin(); it != queue.end();) {
    if (serve_from_buffer(*it, cycle, /*count_miss=*/false)) {
      it = queue.erase(it);
    } else {
      ++it;
    }
  }
  if (queue.empty()) return false;

  const auto& t = cfg_.timing;

  // First-ready pass: oldest request whose column command can issue now.
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    dram::Bank& bank = banks_[it->bank];
    if (bank.classify(cycle, it->row) != RowBufferOutcome::kHit) continue;
    if (bank.earliest_column(cycle) != cycle) continue;
    const u64 data_start =
        cycle + (it->req.type == AccessType::kRead ? t.tCL : t.tWL);
    if (bus_free_cycle_ > data_start) continue;

    classify_if_new(*it, cycle);
    prefetch::AccessContext ctx{.bank = it->bank,
                                .row = it->row,
                                .line = it->column,
                                .type = it->req.type,
                                .outcome = it->outcome,
                                .queued_same_row = queued_same_row(*it),
                                .dram_cycle = cycle};
    const prefetch::PrefetchDecision decision =
        scheme_->on_demand_access(ctx);

    if (decision.fetch_row && decision.serve_via_buffer &&
        !buffer_.contains(BankRow{it->bank, it->row})) {
      // BASE: the demand rides the row copy itself.
      serve_via_fetch(*it, cycle, decision.precharge_after);
      prefetch::PrefetchDecision extras = decision;
      extras.fetch_row = false;  // the copy is already in flight
      apply_decision(extras, *it);
      queue.erase(it);
      return true;
    }

    note_row_reference(it->bank, it->row, it->column);
    const u64 waited = cycle - std::min(cycle, it->enqueue_cycle);
    h_queue_wait_.sample(waited);
    h_lat_vault_queue_.sample(cpu_cycles_of_dram(waited));
    if (waited > 0) {
      trace_.record(obs::Stage::kVaultQueue, id_, it->req.id,
                    tick_of(cycle - waited), tick_of(cycle));
    }
    u64 done;
    if (it->req.type == AccessType::kRead) {
      done = bank.read(cycle, it->req.id);
      ++n_reads_;
      ++inflight_;
      energy_.add(EnergyEvent::kReadLine);
      const MemRequest req = it->req;
      const Tick ready = tick_of(done);
      sim_.schedule_at(ready, sim::Site::kReadData, id_, [this, req, ready] {
        --inflight_;
        respond_(req, ready);
      });
    } else {
      done = bank.write(cycle, it->req.id);
      ++n_writes_;
      energy_.add(EnergyEvent::kWriteLine);
      // Posted write: completes silently.
    }
    h_lat_bank_service_.sample(cpu_cycles_of_dram(done - cycle));
    bus_free_cycle_ = done;
    apply_decision(decision, *it);
    if (cfg_.page_policy == PagePolicy::kClosed && !decision.precharge_after) {
      // Closed page: schedule a precharge once no queued demand still
      // targets this row (the executor checks both conditions).
      bool queued = false;
      for (const auto& action : actions_) {
        if (action.bank == it->bank && action.row == it->row) {
          queued = true;
          break;
        }
      }
      if (!queued) {
        actions_.push_back(PfAction{.bank = it->bank,
                                    .row = it->row,
                                    .precharge_after = true,
                                    .fetch_issued = true,
                                    .fetch_done_cycle = cycle,
                                    .created_cycle = cycle});
      }
    }
    queue.erase(it);
    return true;
  }
  return false;
}

bool VaultController::advance_demand_bank(u64 cycle) {
  auto& queue = draining_writes_ ? wrq_ : rdq_;
  if (queue.empty()) return false;
  // Advance the oldest request of each bank (younger requests to the same
  // bank must not interleave PRE/ACT with it); issue at most one command.
  u32 banks_seen = 0;  // bitmask; the constructor caps banks at 32
  for (auto& entry : queue) {
    const u32 bank_bit = 1u << entry.bank;
    if (banks_seen & bank_bit) continue;
    banks_seen |= bank_bit;

    dram::Bank& bank = banks_[entry.bank];
    switch (bank.state(cycle)) {
      case dram::BankState::kActive:
        // Wrong row open (a hit would have issued a column in
        // issue_demand_column, unless only the bus blocked it — then wait).
        if (bank.open_row(cycle) != std::make_optional(entry.row) &&
            bank.earliest_precharge(cycle) == cycle) {
          classify_if_new(entry, cycle);
          bank.precharge(cycle);
          energy_.add(EnergyEvent::kPrecharge);
          return true;
        }
        break;
      case dram::BankState::kPrecharged:
        if (bank.earliest_activate(cycle) == cycle && act_allowed(cycle)) {
          classify_if_new(entry, cycle);
          bank.activate(cycle, entry.row, entry.req.id);
          record_act(cycle);
          energy_.add(EnergyEvent::kActivate);
          return true;
        }
        break;
      default:
        break;  // transient state; wait for it to settle
    }
  }
  return false;
}

void VaultController::update_drain_mode() {
  if (draining_writes_) {
    if (wrq_.size() <= cfg_.write_drain_low) draining_writes_ = false;
  } else {
    if (wrq_.size() >= cfg_.write_drain_high ||
        (rdq_.empty() && !wrq_.empty())) {
      draining_writes_ = true;
    }
  }
}

void VaultController::complete_fetch(BankId bank, RowId row,
                                     u64 seed_bitmap, u64 issue_cycle) {
  // Queued requests may now hit the buffer: wake at this edge, after the
  // tick's data events.
  schedule_wake_at_cycle(cycle_of(sim_.now()));
  const auto result =
      buffer_.insert(BankRow{bank, row}, seed_bitmap, issue_cycle);
  if (!result.inserted) return;
  // Instant markers on the vault lane; the span id folds (bank, row) so a
  // viewer query can follow one row's residency.
  const Tick at = tick_of(issue_cycle);
  trace_.record(obs::Stage::kPfInsert, id_, (u64{bank} << 40) | row, at, at);
  c_prefetch_.inc();
  if (result.victim) {
    const prefetch::EvictedRow& victim = *result.victim;
    trace_.record(obs::Stage::kPfEvict, id_,
                  (u64{victim.id.bank} << 40) | victim.id.row, at, at);
    scheme_->on_prefetch_evicted(victim.id, victim.referenced);
    if (victim.dirty) energy_.add(EnergyEvent::kRowWriteback);
  }
}

bool VaultController::issue_prefetch(u64 cycle) {
  for (auto it = actions_.begin(); it != actions_.end();) {
    PfAction& action = *it;
    dram::Bank& bank = banks_[action.bank];

    if (action.fetch_issued) {
      // Waiting to precharge after the copy (or, under the closed-page
      // policy, after the column access) completes. Pending demand to the
      // same row defers the close: after a CAMPS fetch those demands drain
      // via the buffer first; under closed page they are row hits we must
      // not destroy.
      if (cycle >= action.fetch_done_cycle &&
          bank.state(cycle) == dram::BankState::kActive &&
          bank.open_row(cycle) == std::make_optional(action.row)) {
        bool demanded = false;
        for (const auto& e : rdq_) {
          if (e.bank == action.bank && e.row == action.row) {
            demanded = true;
            break;
          }
        }
        if (!demanded && bank.earliest_precharge(cycle) == cycle) {
          bank.precharge(cycle);
          energy_.add(EnergyEvent::kPrecharge);
          actions_.erase(it);
          return true;
        }
      } else if (bank.open_row(cycle) != std::make_optional(action.row) &&
                 cycle >= action.fetch_done_cycle) {
        // The row already closed (e.g. refresh drain): nothing left to do.
        it = actions_.erase(it);
        continue;
      }
      ++it;
      continue;
    }

    if (buffer_.contains(BankRow{action.bank, action.row})) {
      it = actions_.erase(it);
      continue;
    }

    switch (bank.state(cycle)) {
      case dram::BankState::kActive: {
        if (bank.open_row(cycle) == std::make_optional(action.row)) {
          const u64 start = bank.earliest_column(cycle);
          if (start == cycle) {
            const u64 done = bank.fetch_row(cycle);
            energy_.add(EnergyEvent::kRowFetch);
            const BankId b = action.bank;
            const RowId r = action.row;
            const u64 seed = row_reference_bitmap(b, r);
            sim_.schedule_at(tick_of(done), sim::Site::kRowCopy, id_,
                             [this, b, r, seed, cycle] {
              complete_fetch(b, r, seed, cycle);
            });
            if (action.precharge_after) {
              action.fetch_issued = true;
              action.fetch_done_cycle = done;
            } else {
              actions_.erase(it);
            }
            return true;
          }
        } else {
          // Another row occupies the bank (MMD extra rows). Close it only
          // if no queued demand still wants it — a prefetch must never
          // turn a pending row hit into a conflict.
          const auto open = bank.open_row(cycle);
          bool demanded = false;
          for (const auto& e : rdq_) {
            if (e.bank == action.bank && open == std::make_optional(e.row)) {
              demanded = true;
              break;
            }
          }
          if (!demanded && bank.earliest_precharge(cycle) == cycle) {
            bank.precharge(cycle);
            energy_.add(EnergyEvent::kPrecharge);
            return true;
          }
        }
        ++it;
        continue;
      }
      case dram::BankState::kPrecharged:
        if (bank.earliest_activate(cycle) == cycle && act_allowed(cycle)) {
          bank.activate(cycle, action.row);
          record_act(cycle);
          energy_.add(EnergyEvent::kActivate);
          return true;
        }
        ++it;
        continue;
      default:
        ++it;
        continue;
    }
  }
  return false;
}

}  // namespace camps::hmc
