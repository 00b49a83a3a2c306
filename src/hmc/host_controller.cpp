#include "hmc/host_controller.hpp"

#include <utility>

#include "common/assert.hpp"

namespace camps::hmc {

HostController::HostController(sim::Simulator& sim, const HmcConfig& config,
                               prefetch::SchemeKind scheme,
                               const prefetch::SchemeParams& params,
                               StatRegistry& stats, ReadDoneFn on_read_done,
                               obs::TraceRecorder& trace)
    : sim_(sim),
      device_(sim, config, scheme, params, stats,
              [this](const MemRequest& req) { deliver(req); }, trace),
      on_read_done_(std::move(on_read_done)),
      trace_(trace),
      h_lat_total_read_(stats.histogram("latency.total_read_cycles",
                                        /*bucket_width=*/32,
                                        /*num_buckets=*/128)) {
  CAMPS_ASSERT(on_read_done_);
}

u64 HostController::read(Addr addr, CoreId core) {
  MemRequest req;
  req.id = next_id_++;
  req.addr = addr;
  req.type = AccessType::kRead;
  req.core = core;
  req.created = sim_.now();
  const auto [it, inserted] = outstanding_.emplace(
      req.id,
      Pending{.addr = addr, .core = core, .first_created = req.created});
  CAMPS_ASSERT(inserted);
  ++reads_;
  const auto& fault_cfg = device_.config().fault;
  if (device_.fault_plan().enabled() && fault_cfg.host_timeout_ticks > 0) {
    it->second.timeout =
        sim_.schedule(fault_cfg.host_timeout_ticks, sim::Site::kHostTimeout,
                      0, [this, id = req.id] { on_timeout(id); });
  }
  device_.submit(req, sim_.now());
  return req.id;
}

u64 HostController::write(Addr addr, CoreId core) {
  MemRequest req;
  req.id = next_id_++;
  req.addr = addr;
  req.type = AccessType::kWrite;
  req.core = core;
  req.created = sim_.now();
  ++writes_;
  device_.submit(req, sim_.now());
  return req.id;
}

void HostController::on_timeout(u64 id) {
  const auto it = outstanding_.find(id);
  // An answer cancels its timeout, and a retry re-keys the read under a
  // fresh id with its own timeout.
  CAMPS_ASSERT_MSG(it != outstanding_.end(), "timeout of an answered read");
  fault::FaultPlan& plan = device_.fault_plan();
  const auto& fault_cfg = device_.config().fault;
  Pending pending = it->second;
  outstanding_.erase(it);
  if (pending.attempt > fault_cfg.host_retry_budget) {
    // Retry budget exhausted: complete the request poisoned so the core
    // can account the loss instead of stalling forever.
    MemRequest req;
    req.id = id;
    req.addr = pending.addr;
    req.type = AccessType::kRead;
    req.core = pending.core;
    req.created = pending.first_created;
    req.poisoned = true;
    plan.count_host_poison(sim_.now() - pending.first_created);
    trace_.record(obs::Stage::kHostRead, req.core, req.id,
                  pending.first_created, sim_.now());
    on_read_done_(req);
    return;
  }
  // Linear backoff: the n-th retry waits n backoff periods before
  // re-entering the cube, spacing repeated attempts under a fault burst.
  const Tick backoff = fault_cfg.host_backoff_ticks * pending.attempt;
  plan.count_host_retry();
  reissue(pending, backoff);
}

void HostController::reissue(Pending pending, Tick backoff) {
  // A fresh id per attempt: if the "lost" original (or its response) is
  // merely late, its delivery is detected as stale instead of being
  // double-counted as the retry's answer.
  const u64 id = next_id_++;
  pending.attempt += 1;
  const auto& fault_cfg = device_.config().fault;
  const Tick timeout = fault_cfg.host_timeout_ticks;
  pending.timeout = {};  // the old id's timeout has fired
  const auto [it, inserted] = outstanding_.emplace(id, pending);
  CAMPS_ASSERT(inserted);
  if (timeout > 0) {
    it->second.timeout =
        sim_.schedule(backoff + timeout, sim::Site::kHostTimeout, 0,
                      [this, id] { on_timeout(id); });
  }
  sim_.schedule(backoff, sim::Site::kHostRetry, 0, [this, id] {
    // The retry's own timeout fires only after this re-submission.
    const auto entry = outstanding_.find(id);
    CAMPS_ASSERT(entry != outstanding_.end());
    MemRequest req;
    req.id = id;
    req.addr = entry->second.addr;
    req.type = AccessType::kRead;
    req.core = entry->second.core;
    req.created = sim_.now();
    device_.submit(req, sim_.now());
  });
}

void HostController::deliver(const MemRequest& request) {
  const auto it = outstanding_.find(request.id);
  if (it == outstanding_.end()) {
    // Under fault injection a response can race its own timeout: the retry
    // superseded this id, or the poison path already completed it.
    CAMPS_ASSERT_MSG(device_.fault_plan().enabled(),
                     "response for unknown request");
    device_.fault_plan().count_late_response();
    return;
  }
  const Pending& pending = it->second;
  if (pending.timeout) sim_.cancel(pending.timeout);
  const u64 cycles =
      (sim_.now() - pending.first_created) / sim::kCpuTicksPerCycle;
  h_lat_total_read_.sample(cycles);
  trace_.record(obs::Stage::kHostRead, request.core, request.id,
                pending.first_created, sim_.now());
  if (pending.attempt > 1) {
    device_.fault_plan().count_host_recovery(sim_.now() -
                                             pending.first_created);
  }
  outstanding_.erase(it);
  on_read_done_(request);
}

void HostController::reset_stats() {
  reads_ = writes_ = 0;
  device_.reset_stats();
}

}  // namespace camps::hmc
