#include "exp/runner.hpp"


#include <cmath>
#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace camps::exp {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig cfg;
  cfg.warmup_instructions = 4000;
  cfg.measure_instructions = 20000;
  return cfg;
}

TEST(Runner, WorkloadLists) {
  EXPECT_EQ(Runner::all_workloads().size(), 12u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kHM).size(), 4u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kLM).size(), 4u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kMX).size(), 4u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kMX)[0], "MX1");
}

TEST(Runner, CachesResults) {
  Runner runner(tiny());
  const auto& first = runner.result("LM1", prefetch::SchemeKind::kNone);
  const auto& second = runner.result("LM1", prefetch::SchemeKind::kNone);
  EXPECT_EQ(&first, &second) << "same run must not execute twice";
}

TEST(Runner, SpeedupOfSchemeAgainstItselfIsOne) {
  Runner runner(tiny());
  EXPECT_DOUBLE_EQ(runner.speedup("LM1", prefetch::SchemeKind::kNone,
                                  prefetch::SchemeKind::kNone),
                   1.0);
}

TEST(Runner, MeanSpeedupIsGeometric) {
  Runner runner(tiny());
  const double s1 = runner.speedup("LM1", prefetch::SchemeKind::kCampsMod,
                                   prefetch::SchemeKind::kBase);
  const double s2 = runner.speedup("LM2", prefetch::SchemeKind::kCampsMod,
                                   prefetch::SchemeKind::kBase);
  const double mean = runner.mean_speedup({"LM1", "LM2"},
                                          prefetch::SchemeKind::kCampsMod,
                                          prefetch::SchemeKind::kBase);
  EXPECT_NEAR(mean, std::sqrt(s1 * s2), 1e-9);
}

TEST(Runner, SoloIpcCachedAndPositive) {
  Runner runner(tiny());
  const double a = runner.solo_ipc("h264ref", prefetch::SchemeKind::kNone);
  EXPECT_GT(a, 0.0);
  EXPECT_LE(a, 4.0);
  EXPECT_DOUBLE_EQ(runner.solo_ipc("h264ref", prefetch::SchemeKind::kNone),
                   a);
}

TEST(Runner, WeightedSpeedupBounds) {
  Runner runner(tiny());
  const double ws =
      runner.weighted_speedup("LM4", prefetch::SchemeKind::kNone);
  // Eight co-runners, each at most (approximately) its solo speed; memory
  // contention keeps the total well below 8 but above 1.
  EXPECT_GT(ws, 1.0);
  EXPECT_LT(ws, 8.5);
}

TEST(Runner, HarmonicAtMostWeightedOverN) {
  // HM(x) <= AM(x): harmonic speedup <= weighted speedup / N elementwise.
  Runner runner(tiny());
  const double ws =
      runner.weighted_speedup("LM4", prefetch::SchemeKind::kNone);
  const double hs =
      runner.harmonic_speedup("LM4", prefetch::SchemeKind::kNone);
  EXPECT_GT(hs, 0.0);
  EXPECT_LE(hs, ws / 8.0 + 1e-9);
}

// Field-by-field equality of everything deterministic in RunResults.
// wall_seconds is host timing and is deliberately excluded.
void expect_bit_identical(const system::RunResults& a,
                          const system::RunResults& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
    EXPECT_EQ(a.cores[i].instructions, b.cores[i].instructions);
    EXPECT_EQ(a.cores[i].loads, b.cores[i].loads);
    EXPECT_EQ(a.cores[i].stores, b.cores[i].stores);
    EXPECT_EQ(a.cores[i].stall_cycles, b.cores[i].stall_cycles);
  }
  EXPECT_EQ(a.geomean_ipc, b.geomean_ipc);
  EXPECT_EQ(a.amat_cycles, b.amat_cycles);
  EXPECT_EQ(a.mem_latency_cycles, b.mem_latency_cycles);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_empties, b.row_empties);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.row_conflict_rate, b.row_conflict_rate);
  EXPECT_EQ(a.prefetches, b.prefetches);
  EXPECT_EQ(a.prefetch_accuracy, b.prefetch_accuracy);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.buffer_misses, b.buffer_misses);
  EXPECT_EQ(a.buffer_hit_rate, b.buffer_hit_rate);
  EXPECT_EQ(a.energy_pj, b.energy_pj);
  EXPECT_EQ(a.link_down_utilization, b.link_down_utilization);
  EXPECT_EQ(a.link_up_utilization, b.link_up_utilization);
  EXPECT_EQ(a.link_wakeups, b.link_wakeups);
  EXPECT_EQ(a.mpki, b.mpki);
  EXPECT_EQ(a.memory_reads, b.memory_reads);
  EXPECT_EQ(a.memory_writes, b.memory_writes);
  EXPECT_EQ(a.measure_span_ticks, b.measure_span_ticks);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Runner, ParallelSweepBitIdenticalToSerial) {
  const std::vector<std::string> workloads = {"LM1", "HM1"};
  const std::vector<prefetch::SchemeKind> schemes = {
      prefetch::SchemeKind::kNone, prefetch::SchemeKind::kCampsMod};

  ExperimentConfig serial_cfg = tiny();
  serial_cfg.jobs = 1;
  Runner serial(serial_cfg);
  serial.run_all(workloads, schemes);

  ExperimentConfig parallel_cfg = tiny();
  parallel_cfg.jobs = 4;
  Runner parallel(parallel_cfg);
  parallel.run_all(workloads, schemes);

  for (const auto& w : workloads) {
    for (auto s : schemes) {
      SCOPED_TRACE(w + "/" + prefetch::to_string(s));
      expect_bit_identical(serial.result(w, s), parallel.result(w, s));
    }
  }
}

TEST(Runner, FaultCampaignBitIdenticalAcrossJobs) {
  // Fault decisions are pure hashes of (seed, site, unit, sequence) — no
  // shared RNG — so an injection campaign must be exactly as --jobs
  // invariant as a fault-free sweep, fault counters included.
  const std::vector<std::string> workloads = {"LM1", "HM1"};
  std::vector<Runner::Sim> campaign;
  for (const auto& w : workloads) {
    system::SystemConfig cfg =
        tiny().system_config(prefetch::SchemeKind::kCampsMod);
    cfg.hmc.fault.link_crc_rate = 1e-3;
    cfg.hmc.fault.vault_stall_rate = 1e-4;
    cfg.hmc.fault.vault_degrade_threshold = 8;
    cfg.hmc.fault.seed = 42;
    campaign.push_back({cfg, w});
  }

  ExperimentConfig serial_cfg = tiny();
  serial_cfg.jobs = 1;
  const auto serial = Runner(serial_cfg).run_sims(campaign);

  ExperimentConfig parallel_cfg = tiny();
  parallel_cfg.jobs = 4;
  const auto parallel = Runner(parallel_cfg).run_sims(campaign);

  ASSERT_EQ(serial.size(), workloads.size());
  ASSERT_EQ(parallel.size(), workloads.size());
  bool any_injected = false;
  for (size_t i = 0; i < workloads.size(); ++i) {
    SCOPED_TRACE(workloads[i]);
    const auto& a = serial[i];
    const auto& b = parallel[i];
    expect_bit_identical(a, b);
    EXPECT_TRUE(a.faults.active);
    EXPECT_EQ(a.faults.injected(), b.faults.injected());
    EXPECT_EQ(a.faults.crc_errors, b.faults.crc_errors);
    EXPECT_EQ(a.faults.replays, b.faults.replays);
    EXPECT_EQ(a.faults.vault_stalls, b.faults.vault_stalls);
    EXPECT_EQ(a.faults.host_retries, b.faults.host_retries);
    EXPECT_EQ(a.faults.host_poisoned, b.faults.host_poisoned);
    EXPECT_EQ(a.faults.degrade_flushes, b.faults.degrade_flushes);
    EXPECT_EQ(a.faults.recovery.count, b.faults.recovery.count);
    EXPECT_EQ(a.faults.recovery.mean, b.faults.recovery.mean);
    any_injected |= a.faults.injected() > 0;
  }
  EXPECT_TRUE(any_injected) << "campaign rates too low to exercise anything";
}

TEST(Runner, RunAllPopulatesTimingAndCache) {
  ExperimentConfig cfg = tiny();
  cfg.jobs = 2;
  Runner runner(cfg);
  runner.run_all({"LM1"}, {prefetch::SchemeKind::kNone});
  EXPECT_EQ(runner.timing().runs, 1u);
  EXPECT_GT(runner.timing().events, 0u);
  EXPECT_GT(runner.timing().sweep_seconds, 0.0);
  // Re-running the same jobs is a pure cache hit: no new runs.
  runner.run_all({"LM1"}, {prefetch::SchemeKind::kNone});
  EXPECT_EQ(runner.timing().runs, 1u);
}

TEST(Runner, RunSimsKeepsInputOrderAndMatchesCachedRuns) {
  // Config-keyed runs take the same path as cached ones: the default
  // config reproduces the cached run bit for bit, a knob changes it, and
  // the results come back in input order without touching the cache.
  Runner runner(tiny());
  const ExperimentConfig cfg = tiny();
  auto knob = cfg.system_config(prefetch::SchemeKind::kCampsMod);
  knob.scheme_params.camps.conflict_entries = 4;
  const auto results = runner.run_sims(
      {{knob, "HM1"},
       {cfg.system_config(prefetch::SchemeKind::kCampsMod), "HM1"}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(runner.timing().runs, 2u);
  EXPECT_TRUE(runner.results().empty());
  const auto& cached = runner.result("HM1", prefetch::SchemeKind::kCampsMod);
  EXPECT_EQ(results[1].to_json(0), cached.to_json(0));
  EXPECT_NE(results[0].to_json(0), cached.to_json(0));
}

TEST(RunParallel, PreservesJobOrder) {
  std::vector<SimFn> sims;
  for (int i = 0; i < 8; ++i) {
    sims.push_back([i] {
      system::RunResults r;
      r.events_executed = static_cast<u64>(i);
      return r;
    });
  }
  const auto results = run_parallel(std::move(sims), 4);
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].events_executed,
              static_cast<u64>(i));
  }
}

TEST(Runner, ConfigPropagatesToSystem) {
  ExperimentConfig cfg = tiny();
  cfg.seed = 1234;
  const auto sys_cfg = cfg.system_config(prefetch::SchemeKind::kMmd);
  EXPECT_EQ(sys_cfg.seed, 1234u);
  EXPECT_EQ(sys_cfg.core.measure_instructions, 20000u);
  EXPECT_EQ(sys_cfg.scheme, prefetch::SchemeKind::kMmd);
}

}  // namespace
}  // namespace camps::exp
