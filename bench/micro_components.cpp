// Google-benchmark micro-benchmarks for the hot data structures: event
// queue, prefetch buffer, CAMPS tables, address decoding, and trace
// generation. These guard the simulator's own performance (a full Table II
// sweep executes billions of these operations).
#include <benchmark/benchmark.h>

#include "hmc/address_map.hpp"
#include "prefetch/conflict_table.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "prefetch/rut.hpp"
#include "sim/event_queue.hpp"
#include "trace/spec_profiles.hpp"

namespace {

using namespace camps;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  u64 x = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      q.schedule(x >> 40, [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_AddressDecode(benchmark::State& state) {
  const hmc::AddressMap map;
  u64 x = 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    benchmark::DoNotOptimize(map.decode(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddressDecode);

void BM_PrefetchBufferAccess(benchmark::State& state) {
  prefetch::PrefetchBuffer buf(prefetch::PrefetchBufferConfig{},
                               prefetch::Replacement::kLru);
  for (u64 r = 0; r < 16; ++r) buf.insert(BankRow{0, r});
  u64 x = 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    benchmark::DoNotOptimize(
        buf.access(BankRow{0, (x >> 30) % 24}, (x >> 10) % 16,
                   AccessType::kRead));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchBufferAccess);

void BM_PrefetchBufferInsertEvict(benchmark::State& state) {
  const bool util_recency = state.range(0) != 0;
  prefetch::PrefetchBuffer buf(
      prefetch::PrefetchBufferConfig{},
      util_recency ? prefetch::Replacement::kUtilizationRecency
                   : prefetch::Replacement::kLru);
  u64 r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.insert(BankRow{0, r++}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchBufferInsertEvict)->Arg(0)->Arg(1);

void BM_ConflictTableChurn(benchmark::State& state) {
  prefetch::ConflictTable ct(32);
  u64 x = 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ct.insert(BankRow{static_cast<BankId>((x >> 8) % 16), (x >> 20) % 256});
    benchmark::DoNotOptimize(
        ct.contains(BankRow{static_cast<BankId>((x >> 9) % 16),
                            (x >> 21) % 256}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConflictTableChurn);

void BM_RutTouch(benchmark::State& state) {
  prefetch::RowUtilizationTable rut(16);
  u64 x = 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    benchmark::DoNotOptimize(
        rut.touch(static_cast<BankId>((x >> 5) % 16), (x >> 20) % 64));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RutTouch);

void BM_TraceGeneration(benchmark::State& state) {
  const auto& profile = trace::all_benchmarks()[static_cast<size_t>(
      state.range(0))];
  auto src = profile.make_source(1, trace::PatternGeometry{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(src->next());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(profile.name);
}
BENCHMARK(BM_TraceGeneration)->Arg(0)->Arg(7)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
