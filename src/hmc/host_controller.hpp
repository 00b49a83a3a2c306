// Host-side HMC controller.
//
// Sits between the L3 and the cube's serial links: assigns request ids,
// tracks outstanding reads by id, reports every finished read through the
// one read-done hook given at construction, and measures main-memory
// access latency (request submission to response delivery) — the raw
// material of the paper's AMAT metric (Fig. 8).
//
// Fault recovery: when the device's FaultPlan is enabled (and
// FaultConfig::host_timeout_ticks is non-zero), every read schedules a
// timeout event keyed by its request id, and the answer cancels it, so a
// timeout that fires always finds its read outstanding. A read that times
// out is re-issued under a fresh id after a linear backoff; one that
// exhausts the retry budget completes poisoned (MemRequest::poisoned) so
// the core side can account the loss instead of hanging. Responses to
// superseded ids are counted, not delivered. With a disabled plan none of
// this machinery runs — no timer events — preserving byte-identical
// fault-free runs.
#pragma once

#include <functional>
#include <unordered_map>

#include "hmc/hmc_device.hpp"

namespace camps::hmc {

class HostController final {
 public:
  /// Fired once per read: when its response returns, or when it is
  /// poisoned after exhausting the retry budget (MemRequest::poisoned).
  using ReadDoneFn = std::function<void(const MemRequest&)>;

  HostController(sim::Simulator& sim, const HmcConfig& config,
                 prefetch::SchemeKind scheme,
                 const prefetch::SchemeParams& params, StatRegistry& stats,
                 ReadDoneFn on_read_done, obs::TraceRecorder& trace);

  /// Issues a read and returns its request id; the read-done hook reports
  /// its completion.
  u64 read(Addr addr, CoreId core);

  /// Issues a posted write (it never reaches the read-done hook).
  u64 write(Addr addr, CoreId core);

  bool idle() const { return outstanding_.empty() && device_.idle(); }

  HmcDevice& device() { return device_; }
  const HmcDevice& device() const { return device_; }

  // --- statistics --------------------------------------------------------
  u64 reads_issued() const { return reads_; }
  u64 writes_issued() const { return writes_; }
  /// Read latency in CPU cycles (submission -> delivery) of every answered
  /// read: the registry's "latency.total_read_cycles". Its count() is the
  /// reads completed, its mean() the mean read latency. Retries and
  /// poisonings are the registry's "fault.host_*" counters.
  const Histogram& read_latency() const { return h_lat_total_read_; }

  /// Zeroes the issue counters and the device's member counters
  /// (outstanding requests are unaffected); marks the warmup boundary.
  /// Registry entries reset with their StatRegistry.
  void reset_stats();

  /// Audits the id/outstanding bookkeeping, then the whole device.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// One outstanding read. `attempt` counts issues of this logical request
  /// (1 = original); each retry re-keys the entry under a fresh id so a
  /// late response to a superseded id is identifiable instead of being
  /// mistaken for the retry's answer.
  struct Pending {
    Addr addr = 0;
    CoreId core = 0;
    Tick first_created = 0;  ///< Original issue; latency baseline.
    u32 attempt = 1;
    sim::EventHandle timeout = {};  ///< This id's timeout, if one is armed.
  };

  void deliver(const MemRequest& request);
  /// Retries or poisons `id`, which must still be outstanding.
  void on_timeout(u64 id);
  /// Re-submits `pending` under a fresh id after `backoff` ticks.
  void reissue(Pending pending, Tick backoff);

  sim::Simulator& sim_;
  HmcDevice device_;
  ReadDoneFn on_read_done_;
  obs::TraceRecorder& trace_;
  // Keyed lookup/erase only — never iterated for ordered output, so the
  // unspecified iteration order cannot leak into results.
  std::unordered_map<u64, Pending> outstanding_;  // camps-lint: allow(determinism)
  Histogram& h_lat_total_read_;
  u64 next_id_ = 1;
  u64 reads_ = 0, writes_ = 0;
};

static_assert(check::Auditable<HostController>);

}  // namespace camps::hmc
