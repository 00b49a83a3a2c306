// Protocol oracle: end-to-end invariants of the memory system under
// randomized soak traffic, checked for every scheme and page policy.
//
//   1. every read gets exactly one response (no loss, no duplication);
//   2. no response beats the physical minimum latency;
//   3. responses to the same line from the same submission order never
//      reorder *within a bank-row stream* by more than the queue depth
//      would allow (sanity, not strict FIFO — FR-FCFS may reorder across
//      rows);
//   4. the device drains to idle when traffic stops.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "hmc/host_controller.hpp"

namespace camps::hmc {
namespace {

struct SoakCase {
  prefetch::SchemeKind scheme;
  PagePolicy policy;
  bool refresh;
};

// Names each ctest after its fields ("BASE_open_refresh") instead of the
// struct's bytes.
void PrintTo(const SoakCase& c, std::ostream* os) {
  *os << prefetch::to_string(c.scheme)
      << (c.policy == PagePolicy::kOpen ? "_open" : "_closed")
      << (c.refresh ? "_refresh" : "_norefresh");
}

class ProtocolSoak : public ::testing::TestWithParam<SoakCase> {};

TEST_P(ProtocolSoak, InvariantsHold) {
  const SoakCase& c = GetParam();
  sim::Simulator sim;
  HmcConfig cfg;
  cfg.vault.page_policy = c.policy;
  cfg.vault.refresh_enabled = c.refresh;
  StatRegistry stats;
  obs::TraceRecorder trace;  // disabled

  // The cheapest possible read: buffer hit (22 CPU cycles) plus one
  // crossbar+link round trip. Anything faster is a simulator bug.
  const Tick min_latency =
      2 * cfg.crossbar.latency_ticks + 2 * cfg.link.flight_ticks +
      cfg.vault.buffer.hit_latency * sim::kCpuTicksPerCycle;

  std::map<u64, Tick> submitted;       // request id -> submit tick
  std::map<u64, u64> responses;        // request id -> response count
  std::map<u64, Tick> completed_at;
  // Every read completes through the host's one read-done hook, keyed by
  // request id. The hook only fires from the event loop, after read() has
  // returned and its id was recorded in `submitted`.
  HostController host(sim, cfg, c.scheme, prefetch::SchemeParams{}, stats,
                      [&](const MemRequest& req) {
                        ++responses[req.id];
                        completed_at[req.id] = sim.now();
                        ASSERT_EQ(submitted.count(req.id), 1u)
                            << "response to an id never issued";
                        EXPECT_GE(sim.now() - submitted[req.id], min_latency)
                            << "response faster than physically possible";
                      },
                      trace);

  u64 x = 2026;
  u64 issued = 0;
  // Bursty traffic: busy windows of back-to-back requests, idle gaps that
  // cross refresh boundaries.
  Tick t = 0;
  for (int burst = 0; burst < 40; ++burst) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const int len = 10 + static_cast<int>((x >> 40) % 60);
    for (int i = 0; i < len; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const Addr addr = (x % (u64{1} << 31)) & ~u64{63};
      const bool write = (x & 15) == 0;
      const Tick when = t + static_cast<Tick>(i) * 30;
      sim.schedule_at(when, sim::Site::kCoreStep, 0, [&, addr, write, when] {
        if (write) {
          host.write(addr, 0);
        } else {
          const u64 id = host.read(addr, 0);
          submitted[id] = when;
        }
      });
      if (!write) ++issued;
    }
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    t += static_cast<Tick>(len) * 30 + (x >> 45) % 300000;
  }

  // A steady tail of evenly spaced reads after the bursts.
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Addr addr = (x % (u64{1} << 31)) & ~u64{63};
    const Tick when = t + static_cast<Tick>(i) * 60;
    sim.schedule_at(when, sim::Site::kCoreStep, 0, [&, addr, when] {
      const u64 id = host.read(addr, 0);
      submitted[id] = when;
    });
  }
  issued += 200;

  sim.run_until(t + 200 * 60 + 50'000'000);

  EXPECT_EQ(host.read_latency().count(), issued) << "every read answered";
  EXPECT_TRUE(host.idle()) << "device must drain";
  for (const auto& [id, count] : responses) {
    EXPECT_EQ(count, 1u) << "request " << id << " answered " << count
                         << " times";
  }
  EXPECT_EQ(responses.size(), issued) << "every read reached the hook";
  EXPECT_EQ(submitted.size(), issued);
}

INSTANTIATE_TEST_SUITE_P(
    Soak, ProtocolSoak,
    ::testing::Values(
        SoakCase{prefetch::SchemeKind::kNone, PagePolicy::kOpen, true},
        SoakCase{prefetch::SchemeKind::kBase, PagePolicy::kOpen, true},
        SoakCase{prefetch::SchemeKind::kBaseHit, PagePolicy::kOpen, true},
        SoakCase{prefetch::SchemeKind::kMmd, PagePolicy::kOpen, true},
        SoakCase{prefetch::SchemeKind::kCamps, PagePolicy::kOpen, true},
        SoakCase{prefetch::SchemeKind::kCampsMod, PagePolicy::kOpen, true},
        SoakCase{prefetch::SchemeKind::kStream, PagePolicy::kOpen, true},
        SoakCase{prefetch::SchemeKind::kCampsMod, PagePolicy::kClosed, true},
        SoakCase{prefetch::SchemeKind::kCampsMod, PagePolicy::kOpen, false}));

}  // namespace
}  // namespace camps::hmc
