// Full-duplex HMC serial link (Table I: 4 links, 16 input + 16 output
// lanes, 12.5 Gbps per lane).
//
// Each direction is an independent serializer: 16 lanes x 12.5 Gbps =
// 25 GB/s, i.e. one 16 B flit every 0.64 ns. The tick quantum (1/24 ns)
// cannot represent 0.64 ns exactly, so each packet's serialization time is
// rounded UP to whole ticks — under-reporting link bandwidth by < 3%,
// which is conservative for prefetching results (links look slightly more
// congested than reality, never less). A fixed SerDes+flight latency is
// added on top.
// Reliability (fault-injection extension): a CRC-failed transfer is
// replayed — re-serialized once the retry request has travelled back — so
// the far end still receives the packet, just later. Only the replay's
// timing is modelled: each failed attempt costs a detection flight, the
// retry overhead and another serialization, and link time stays charged.
// An injected drop loses the packet outright (recovery is the requester's
// host timeout). Token-based flow control models the HMC credit loop: a
// packet may not start serializing until enough flit credits have returned
// from previously delivered packets. Every direction takes the device's
// FaultPlan at construction: the plan decides each packet's fault, counts
// it under fault.*, and its FaultConfig::link_tokens sizes the credit pool.
// With a disabled plan (no faults, link_tokens = 0) both mechanisms are
// inert: no fault is rolled and no credit is tracked.
#pragma once

#include <deque>

#include "common/types.hpp"
#include "hmc/packet.hpp"
#include "obs/trace_recorder.hpp"

namespace camps::fault {
class FaultPlan;
}  // namespace camps::fault

namespace camps::hmc {

struct LinkParams {
  u32 lanes = 16;
  double gbps_per_lane = 12.5;
  /// One-way SerDes + propagation latency, in ticks (default 4 ns).
  Tick flight_ticks = 96;

  /// Credit-loop latency: a delivered packet's tokens return this long
  /// after delivery (default: one flight time back).
  Tick token_return_ticks = 96;

  /// Link power management (extension; cf. Ahn et al., IEEE TVLSI 2016 —
  /// the paper's reference [13]): after `sleep_timeout` idle ticks the
  /// SerDes drops into a low-power state and the next packet pays
  /// `wake_ticks` before serialization starts. Disabled by default — the
  /// paper's configuration keeps links always on.
  bool power_management = false;
  Tick sleep_timeout = 24 * 100;  ///< 100 ns of idleness.
  Tick wake_ticks = 24 * 40;      ///< 40 ns SerDes retrain.
};

/// One direction of one link: a bandwidth-limited FIFO pipe.
class LinkDirection {
 public:
  /// Serializations record as `stage` (kLinkDown or kLinkUp) spans on
  /// `trace`, on lane `track` (the link index). `faults` decides which
  /// packets CRC-fail or drop: `track` is this link's unit in the plan's
  /// sequence space and `stage` selects the direction's fault sites. Its
  /// FaultConfig::link_tokens is the credit pool (0 = no flow control).
  LinkDirection(const LinkParams& params, fault::FaultPlan& faults,
                obs::TraceRecorder& trace, obs::Stage stage, u32 track);

  /// A packet's passage through this direction: serialization begins at
  /// `start` (>= submission time when the pipe is backed up, waking, or
  /// waiting for flow-control credits) and the far end receives the last
  /// flit at `deliver`.
  struct Transfer {
    Tick start = 0;
    Tick deliver = 0;
    /// CRC replays this packet needed before clean delivery (0 normally).
    u32 replays = 0;
    /// The transfer was lost beyond replay's ability to recover (injected
    /// unrecoverable fault): `deliver` is meaningless and the caller must
    /// not forward the packet. Recovery is the requester's problem (host
    /// timeout path).
    bool dropped = false;
  };

  /// Accepts a packet at `now`; returns when it started serializing and
  /// when the far end receives it. Packets serialize in submission order
  /// (FIFO). `trace_id` tags the serialization span.
  Transfer submit(Tick now, u32 flits, u64 trace_id = 0);

  /// Serialization ticks for `flits` flits at this link's bandwidth.
  Tick serialization_ticks(u32 flits) const;

  Tick busy_until() const { return busy_until_; }
  u64 flits_carried() const { return flits_carried_; }
  u64 packets_carried() const { return packets_carried_; }
  /// Ticks the link spent serializing (for utilization stats).
  Tick busy_ticks() const { return busy_ticks_; }

  // --- power management statistics (0 unless enabled) -------------------
  u64 wakeups() const { return wakeups_; }
  Tick ticks_asleep() const { return ticks_asleep_; }

  /// Flow-control credits currently available (== the pool when the loop
  /// is idle, 0 when it is disabled).
  u32 tokens_available() const { return tokens_available_; }
  /// Credits still travelling back from delivered packets.
  u32 tokens_pending() const;

  /// Zeroes traffic statistics (the in-flight reservation is untouched);
  /// marks the warmup boundary.
  void reset_stats() {
    busy_ticks_ = 0;
    flits_carried_ = 0;
    packets_carried_ = 0;
    wakeups_ = 0;
    ticks_asleep_ = 0;
  }

 private:
  /// Tokens on their way back from a delivered packet.
  struct TokenReturn {
    Tick at = 0;
    u32 flits = 0;
  };

  /// Credits the tokens that have returned by `now`.
  void reap(Tick now);

  LinkParams p_;
  fault::FaultPlan& faults_;
  obs::TraceRecorder& trace_;
  obs::Stage trace_stage_;
  u32 trace_track_;
  Tick busy_until_ = 0;
  Tick busy_ticks_ = 0;
  u64 flits_carried_ = 0;
  u64 packets_carried_ = 0;
  u64 wakeups_ = 0;
  Tick ticks_asleep_ = 0;

  // Flow-control state. Empty/zero when tokens are off.
  std::deque<TokenReturn> token_returns_; ///< FIFO by return tick.
  u32 tokens_available_ = 0;  ///< Initialized to the pool.
};

/// A full-duplex link: requests flow downstream, responses upstream.
class SerialLink {
 public:
  /// Both directions trace on lane `index` and are fault unit `index`.
  SerialLink(const LinkParams& params, fault::FaultPlan& faults,
             obs::TraceRecorder& trace, u32 index)
      : down_(params, faults, trace, obs::Stage::kLinkDown, index),
        up_(params, faults, trace, obs::Stage::kLinkUp, index) {}

  LinkDirection& downstream() { return down_; }
  LinkDirection& upstream() { return up_; }
  const LinkDirection& downstream() const { return down_; }
  const LinkDirection& upstream() const { return up_; }

 private:
  LinkDirection down_;
  LinkDirection up_;
};

}  // namespace camps::hmc
