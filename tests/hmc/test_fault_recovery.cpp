// Fault injection and recovery: link replay, host retry/poison, vault
// degradation. Exercises the end-to-end paths ISSUE 5 specifies — a
// CRC-failed transfer replays byte-identically, retry-budget exhaustion
// surfaces as a poisoned completion, and a degradation flush leaves every
// audit invariant intact.
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "check/audit.hpp"
#include "hmc/host_controller.hpp"

namespace camps::hmc {
namespace {

struct DeviceHarness {
  sim::Simulator sim;
  StatRegistry stats;
  obs::TraceRecorder trace;  // disabled
  std::unique_ptr<HostController> host;
  std::vector<MemRequest> done;  ///< Every read-done hook call, in order.
  bool stop_on_done = false;     ///< Stop the run at each read-done call.

  explicit DeviceHarness(
      prefetch::SchemeKind scheme = prefetch::SchemeKind::kNone,
      HmcConfig cfg = {}) {
    cfg.vault.refresh_enabled = false;  // determinism for latency asserts
    host = std::make_unique<HostController>(
        sim, cfg, scheme, prefetch::SchemeParams{}, stats,
        [this](const MemRequest& req) {
          done.push_back(req);
          if (stop_on_done) sim.stop();
        },
        trace);
  }
};

obs::TraceRecorder disabled_trace;

LinkDirection make_dir(fault::FaultPlan& plan, const LinkParams& params = {}) {
  return LinkDirection(params, plan, disabled_trace, obs::Stage::kLinkDown, 0);
}

/// Encodes an address that routes to `vault` (link = vault % num_links).
Addr vault_addr(const DeviceHarness& h, u32 vault, u32 row) {
  DecodedAddr d;
  d.vault = vault;
  d.bank = 0;
  d.row = row;
  d.column = 0;
  return h.host->device().map().encode(d);
}

// --- serial-link replay ------------------------------------------------------

TEST(FaultRecovery, CrcFailedTransferReplaysByteIdentically) {
  fault::FaultConfig cfg;
  cfg.targeted.push_back({fault::Site::kLinkDownCrc, /*unit=*/0,
                          /*sequence=*/0});
  StatRegistry stats;
  fault::FaultPlan plan(cfg, stats);
  StatRegistry clean_stats;
  fault::FaultPlan no_faults(fault::FaultConfig{}, clean_stats);

  LinkDirection faulty = make_dir(plan);  // link 0, downstream
  LinkDirection clean = make_dir(no_faults);

  const auto clean_xfer = clean.submit(0, 1);
  const auto xfer = faulty.submit(0, 1);

  // The replay delivers the identical packet — same flit count charged —
  // it is only late by one detection flight, the retry-request return
  // trip, and a re-serialization.
  EXPECT_FALSE(xfer.dropped);
  EXPECT_EQ(xfer.replays, 1u);
  EXPECT_EQ(stats.counter_value("fault.crc_errors"), 1u);
  EXPECT_EQ(stats.counter_value("fault.replays"), 1u);
  EXPECT_EQ(faulty.flits_carried(), clean.flits_carried());
  const Tick overhead = cfg.link_retry_overhead_ticks;
  EXPECT_EQ(xfer.deliver,
            clean_xfer.deliver + overhead + faulty.serialization_ticks(1) +
                LinkParams{}.flight_ticks);

  // The next packet through the same direction is untouched (targeted
  // fault hit sequence 0 only), merely queued behind the replay.
  const auto next = faulty.submit(0, 1);
  EXPECT_EQ(next.replays, 0u);
  EXPECT_FALSE(next.dropped);
  EXPECT_GT(next.deliver, xfer.deliver);
  EXPECT_EQ(stats.counter_value("fault.crc_errors"), 1u);
}

TEST(FaultRecovery, DroppedTransferNeverDelivers) {
  fault::FaultConfig cfg;
  cfg.targeted.push_back({fault::Site::kLinkDownDrop, 0, 0});
  StatRegistry stats;
  fault::FaultPlan plan(cfg, stats);
  LinkDirection link = make_dir(plan);
  const auto xfer = link.submit(0, 1);
  EXPECT_TRUE(xfer.dropped);
  EXPECT_EQ(xfer.replays, 0u);
  EXPECT_EQ(stats.counter_value("fault.link_drops"), 1u);
  EXPECT_EQ(stats.counter_value("fault.crc_errors"), 0u);
  // The link time was spent although nothing arrives.
  EXPECT_EQ(link.packets_carried(), 1u);
}

// --- token flow control ------------------------------------------------------

TEST(FaultRecovery, TokenPoolConservedAndStallsSerialization) {
  fault::FaultConfig cfg;
  cfg.link_tokens = 2;  // two 1-flit packets in flight, the third must wait
  StatRegistry stats;
  fault::FaultPlan plan(cfg, stats);
  const LinkParams p;
  LinkDirection link = make_dir(plan, p);

  const auto first = link.submit(0, 1);
  EXPECT_EQ(link.tokens_available() + link.tokens_pending(), 2u);
  link.submit(0, 1);
  EXPECT_EQ(link.tokens_available() + link.tokens_pending(), 2u);

  // Third packet: pool exhausted until the first packet's credit returns
  // one flight after its delivery.
  const auto third = link.submit(0, 1);
  EXPECT_EQ(third.start, first.deliver + p.token_return_ticks);
  EXPECT_EQ(link.tokens_available() + link.tokens_pending(), 2u);
  EXPECT_GT(stats.counter_value("fault.token_stall_ticks"), 0u);
}

TEST(FaultRecovery, LinkTokensReachEveryLinkDirection) {
  HmcConfig cfg;
  cfg.fault.link_tokens = 16;
  DeviceHarness h(prefetch::SchemeKind::kNone, cfg);
  const HmcDevice& device = h.host->device();
  for (u32 l = 0; l < cfg.num_links; ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(device.link(l).downstream().tokens_available(), 16u);
    EXPECT_EQ(device.link(l).upstream().tokens_available(), 16u);
  }
}

// --- crossbar grant drop -----------------------------------------------------

TEST(FaultRecovery, DroppedGrantNeverTraverses) {
  // The up crossbar's ports sit above the down crossbar's in the plan's
  // sequence space: a fault at unit base + port hits only that crossbar.
  fault::FaultConfig cfg;
  cfg.targeted.push_back({fault::Site::kXbarDrop, /*unit=*/32 + 1, 0});
  StatRegistry stats;
  fault::FaultPlan plan(cfg, stats);
  Crossbar down(32, {}, plan, 0, disabled_trace, obs::Stage::kXbarDown);
  Crossbar up(4, {}, plan, 32, disabled_trace, obs::Stage::kXbarUp);

  EXPECT_FALSE(down.route(0, 1).dropped);
  EXPECT_TRUE(up.route(0, 1).dropped);
  EXPECT_EQ(stats.counter_value("fault.xbar_drops"), 1u);
  // The dropped grant left the port's schedule untouched.
  EXPECT_EQ(up.packets_routed(), 0u);
  EXPECT_EQ(up.route(0, 1).deliver, CrossbarParams{}.latency_ticks);
}

// --- host retry / poison -----------------------------------------------------

TEST(FaultRecovery, RetryBudgetExhaustionPoisonsTheRequest) {
  HmcConfig cfg;
  cfg.fault.link_drop_rate = 1.0;  // every transfer is lost
  cfg.fault.host_timeout_ticks = 24000;
  cfg.fault.host_backoff_ticks = 2400;
  cfg.fault.host_retry_budget = 2;
  DeviceHarness h(prefetch::SchemeKind::kNone, cfg);

  h.host->read(0x1000, 0);
  h.sim.run();

  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_TRUE(h.done[0].poisoned);
  EXPECT_EQ(h.done[0].addr, 0x1000u);
  EXPECT_TRUE(h.host->idle());
  EXPECT_EQ(h.host->read_latency().count(), 0u) << "no read was answered";
  EXPECT_EQ(h.stats.counter_value("fault.host_poisoned"), 1u);
  // Budget fully spent.
  EXPECT_EQ(h.stats.counter_value("fault.host_retries"), 2u);
  // Original + 2 retries each died at the downstream link.
  EXPECT_EQ(h.stats.counter_value("fault.link_drops"), 3u);
  // The poison event samples the recovery-latency histogram.
  const Histogram* rec = h.stats.find_histogram("fault.recovery_cycles");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), 1u);
}

TEST(FaultRecovery, SingleDropRecoversWithinBudget) {
  HmcConfig cfg;
  cfg.fault.targeted.push_back({fault::Site::kLinkDownDrop, /*unit=*/0,
                                /*sequence=*/0});
  DeviceHarness h(prefetch::SchemeKind::kNone, cfg);

  const Addr addr = vault_addr(h, /*vault=*/0, /*row=*/1);  // via link 0
  h.host->read(addr, 0);
  h.sim.run();

  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_FALSE(h.done[0].poisoned);
  EXPECT_EQ(h.host->read_latency().count(), 1u);
  EXPECT_EQ(h.stats.counter_value("fault.host_poisoned"), 0u);
  EXPECT_EQ(h.stats.counter_value("fault.host_retries"), 1u);
  // Recovery latency (timeout + backoff + clean round trip) is sampled
  // once, for the retried read that eventually completed.
  const Histogram* rec = h.stats.find_histogram("fault.recovery_cycles");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), 1u);
  EXPECT_GE(rec->mean(),
            static_cast<double>(cfg.fault.host_timeout_ticks) /
                sim::kCpuTicksPerCycle);
}

TEST(FaultRecovery, LateResponseToSupersededIdIsCountedNotDelivered) {
  HmcConfig cfg;
  // Stall the first vault response just past the host timeout: the retry
  // supersedes the original id, whose response then arrives to a dead id.
  // (The stall must stay moderate: the upstream link is a timestamp-chained
  // FIFO, so the retry's response serializes behind the stalled one and
  // both land shortly after the stall ends — inside the retry's timeout.)
  cfg.fault.targeted.push_back({fault::Site::kVaultStall, /*unit=*/0,
                                /*sequence=*/0});
  cfg.fault.vault_stall_ticks = 60000;
  cfg.fault.host_timeout_ticks = 48000;
  cfg.fault.host_backoff_ticks = 2400;
  DeviceHarness h(prefetch::SchemeKind::kNone, cfg);

  h.host->read(vault_addr(h, 0, 1), 0);
  h.sim.run();

  // The late duplicate must not reach the read-done hook.
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_FALSE(h.done[0].poisoned);
  EXPECT_EQ(h.host->read_latency().count(), 1u);
  EXPECT_EQ(h.stats.counter_value("fault.host_retries"), 1u);
  EXPECT_EQ(h.stats.counter_value("fault.host_poisoned"), 0u);
  EXPECT_EQ(h.stats.counter_value("fault.vault_stalls"), 1u);
  EXPECT_EQ(h.stats.counter_value("fault.late_responses"), 1u);
  EXPECT_TRUE(h.host->idle());
}

TEST(HostController, AnswerCancelsItsTimeout) {
  HmcConfig cfg;
  // A fault aimed at a link this read never uses keeps recovery (and so
  // the per-read timeout) armed without touching the read itself.
  cfg.fault.targeted.push_back({fault::Site::kLinkDownDrop, /*unit=*/1,
                                /*sequence=*/0});
  DeviceHarness h(prefetch::SchemeKind::kNone, cfg);
  ASSERT_TRUE(h.host->device().fault_plan().enabled());

  const Tick issued = h.sim.now();
  const u64 id = h.host->read(vault_addr(h, 0, 1), 0);  // via link 0
  EXPECT_EQ(h.sim.queue().pending_count(sim::Site::kHostTimeout, 0), 1u);
  h.stop_on_done = true;
  h.sim.run();
  EXPECT_LT(h.sim.now() - issued, cfg.fault.host_timeout_ticks)
      << "the response must beat its timeout for this test to mean much";
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].id, id);
  EXPECT_FALSE(h.done[0].poisoned);

  // The answer removed the timeout from the queue: it never fires.
  EXPECT_EQ(h.sim.queue().pending_count(sim::Site::kHostTimeout, 0), 0u);
  EXPECT_EQ(h.sim.events_cancelled(), 1u);
  h.sim.run();
  EXPECT_LT(h.sim.now(), issued + cfg.fault.host_timeout_ticks)
      << "no event waits for the answered read's deadline";
  EXPECT_EQ(h.sim.events_by_site()[static_cast<size_t>(
                sim::Site::kHostTimeout)],
            0u);
  EXPECT_EQ(h.done.size(), 1u) << "the hook fires exactly once";
  EXPECT_EQ(h.stats.counter_value("fault.host_poisoned"), 0u);
  EXPECT_EQ(h.host->read_latency().count(), 1u);
  EXPECT_EQ(h.stats.counter_value("fault.host_retries"), 0u);
  EXPECT_EQ(h.stats.counter_value("fault.late_responses"), 0u);
  EXPECT_TRUE(h.host->idle());
}

// --- vault degradation -------------------------------------------------------

TEST(FaultRecovery, DegradationFlushKeepsEveryAuditInvariant) {
  HmcConfig cfg;
  cfg.fault.vault_stall_rate = 1.0;  // every response attributed as a fault
  cfg.fault.vault_stall_ticks = 240;
  cfg.fault.vault_degrade_threshold = 4;
  DeviceHarness h(prefetch::SchemeKind::kCampsMod, cfg);

  // Sequential rows through a handful of vaults: enough demand to fill
  // prefetch buffers and correlation state before the flushes strike.
  for (u32 row = 1; row <= 16; ++row) {
    for (u32 vault = 0; vault < 4; ++vault) {
      h.host->read(vault_addr(h, vault, row), 0);
    }
  }
  h.sim.run();

  EXPECT_EQ(h.done.size(), 64u);
  EXPECT_GE(h.stats.counter_value("fault.degrade_flushes"), 1u);
  EXPECT_GE(h.host->device().vault(0).degrade_flushes(), 1u);

  // The flush must not corrupt the RUT/CT hand-off or buffer accounting:
  // the full audit pass (host ids, link tokens, every vault's scheme and
  // buffer invariants) comes back clean.
  check::AuditReporter rep;
  h.host->audit(rep);
  EXPECT_TRUE(rep.clean()) << rep.report();
  EXPECT_GT(rep.checks_run(), 0u);
}

TEST(FaultRecovery, FaultFreeConfigLeavesNoFaultState) {
  // The plan is always there, disabled: it registers every fault.* entry
  // at zero, arms no read timeout and never advances a decision sequence.
  DeviceHarness h;
  EXPECT_FALSE(h.host->device().fault_plan().enabled());
  h.host->read(0x1000, 0);
  EXPECT_EQ(h.sim.queue().pending_count(sim::Site::kHostTimeout, 0), 0u);
  h.sim.run();
  for (const char* name :
       {"fault.crc_errors", "fault.replays", "fault.link_drops",
        "fault.xbar_drops", "fault.vault_stalls", "fault.host_retries",
        "fault.host_poisoned", "fault.late_responses",
        "fault.degrade_flushes", "fault.token_stall_ticks"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(h.stats.has_counter(name));
    EXPECT_EQ(h.stats.counter_value(name), 0u);
  }
  const Histogram* rec = h.stats.find_histogram("fault.recovery_cycles");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), 0u);
  EXPECT_EQ(h.host->device().fault_plan().next_sequence(
                fault::Site::kLinkDownDrop, 0),
            0u);
  EXPECT_EQ(h.host->read_latency().count(), 1u);
}

}  // namespace
}  // namespace camps::hmc
