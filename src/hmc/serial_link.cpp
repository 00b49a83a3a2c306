#include "hmc/serial_link.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "fault/fault_plan.hpp"
#include "sim/clock.hpp"

namespace camps::hmc {

LinkDirection::LinkDirection(const LinkParams& params,
                             fault::FaultPlan& faults,
                             obs::TraceRecorder& trace, obs::Stage stage,
                             u32 track)
    : p_(params),
      faults_(faults),
      trace_(trace),
      trace_stage_(stage),
      trace_track_(track),
      tokens_available_(faults.config().link_tokens) {
  CAMPS_ASSERT(p_.lanes > 0);
  CAMPS_ASSERT(p_.gbps_per_lane > 0.0);
}

Tick LinkDirection::serialization_ticks(u32 flits) const {
  // bytes/ns = lanes * gbps / 8; ticks = bytes / (bytes/ns) * ticksPerNs.
  const double bytes = static_cast<double>(flits) * kFlitBytes;
  const double bytes_per_ns = static_cast<double>(p_.lanes) * p_.gbps_per_lane / 8.0;
  const double ns = bytes / bytes_per_ns;
  return static_cast<Tick>(std::ceil(ns * static_cast<double>(sim::kTicksPerNs)));
}

u32 LinkDirection::tokens_pending() const {
  u32 pending = 0;
  for (const TokenReturn& t : token_returns_) pending += t.flits;
  return pending;
}

void LinkDirection::reap(Tick now) {
  while (!token_returns_.empty() && token_returns_.front().at <= now) {
    tokens_available_ += token_returns_.front().flits;
    token_returns_.pop_front();
  }
}

LinkDirection::Transfer LinkDirection::submit(Tick now, u32 flits,
                                              u64 trace_id) {
  CAMPS_ASSERT(flits > 0);
  reap(now);
  Tick start = std::max(now, busy_until_);
  const u32 pool = faults_.config().link_tokens;

  // Flow control: serialization may not begin until enough credits are on
  // hand. Credits return in FIFO order, so draining the pending queue from
  // the front finds the earliest tick with a sufficient balance.
  if (pool > 0) {
    CAMPS_ASSERT_MSG(flits <= pool,
                     "packet larger than the whole token pool");
    Tick credit_ready = start;
    while (tokens_available_ < flits) {
      CAMPS_ASSERT_MSG(!token_returns_.empty(),
                       "token accounting lost credits");
      credit_ready = std::max(credit_ready, token_returns_.front().at);
      tokens_available_ += token_returns_.front().flits;
      token_returns_.pop_front();
    }
    if (credit_ready > start) {
      faults_.count_token_stall_ticks(credit_ready - start);
    }
    start = std::max(start, credit_ready);
    tokens_available_ -= flits;
  }

  if (p_.power_management && packets_carried_ > 0 &&
      now > busy_until_ && now - busy_until_ > p_.sleep_timeout) {
    // The link slept through the idle gap; the SerDes must retrain before
    // this packet serializes.
    ticks_asleep_ += (now - busy_until_) - p_.sleep_timeout;
    ++wakeups_;
    start = std::max(start, now + p_.wake_ticks);
  }

  const Tick ser = serialization_ticks(flits);
  busy_until_ = start + ser;
  busy_ticks_ += ser;
  flits_carried_ += flits;
  ++packets_carried_;
  Tick deliver = busy_until_ + p_.flight_ticks;

  Transfer xfer;
  xfer.start = start;

  using fault::Site;
  const bool upstream = trace_stage_ == obs::Stage::kLinkUp;
  const Site crc_site = upstream ? Site::kLinkUpCrc : Site::kLinkDownCrc;
  const Site drop_site = upstream ? Site::kLinkUpDrop : Site::kLinkDownDrop;

  if (faults_.roll(drop_site, trace_track_)) {
    // Lost beyond replay's reach (models retry-buffer overflow or a
    // persistent lane failure). The link time was spent; the packet never
    // arrives — recovery is the requester's problem (host timeout path).
    faults_.count_link_drop();
    xfer.dropped = true;
    trace_.record(trace_stage_, trace_track_, trace_id, start, busy_until_);
    if (pool > 0) {
      // The credits come back regardless (the link-level timeout frees
      // the far-end buffer slot) — otherwise every drop would shrink the
      // pool until the link deadlocks.
      token_returns_.push_back({busy_until_ + p_.token_return_ticks, flits});
    }
    return xfer;
  }

  // CRC-failed attempts replay: the corruption is detected at the far
  // end (the delivery flight already in `deliver`), the retry request
  // travels back (retry_overhead), and the copy re-serializes behind
  // whatever else the link accepted meanwhile — delivering the identical
  // flits, just later. Each replay re-rolls, so bursty CRC faults
  // compound; the bound is only a safety net against rate = 1.0
  // configurations.
  constexpr u32 kMaxReplays = 8;
  const Tick first_deliver = deliver;
  const Tick overhead = faults_.config().link_retry_overhead_ticks;
  while (xfer.replays < kMaxReplays && faults_.roll(crc_site, trace_track_)) {
    ++xfer.replays;
    faults_.count_crc_error();
    const Tick replay_start = std::max(busy_until_, deliver + overhead);
    busy_until_ = replay_start + ser;
    busy_ticks_ += ser;
    deliver = busy_until_ + p_.flight_ticks;
  }
  if (xfer.replays > 0) faults_.count_replay(deliver - first_deliver);

  trace_.record(trace_stage_, trace_track_, trace_id, start, deliver);
  if (pool > 0) {
    token_returns_.push_back({deliver + p_.token_return_ticks, flits});
  }
  xfer.deliver = deliver;
  return xfer;
}

}  // namespace camps::hmc
