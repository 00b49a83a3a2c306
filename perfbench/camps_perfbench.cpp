// Outside-in benchmark harness for the CAMPS simulator.
//
// Builds Table I systems through the library's public API only, times them
// from outside, checks their outputs, and ends with one JSON line of
// metrics. Nothing in src/ is instrumented: the traced mode wraps the layer
// boundaries the public API exposes (trace sources, the simulator's event
// hook, global operator new, component accessors). See README.md.
//
//   camps_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//   camps_perfbench --workload NAME --seed N --audit [--smoke]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones,
// --audit one audited run (or sweep). The last stdout line is
// {"correct", "attempted", "failed", "digest", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "sim/event_queue.hpp"
#include "system/system.hpp"
#include "workload/workloads.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: every operator new in the process goes through here.
// The counter is per thread so sweep workers can attribute their own runs.

namespace {
thread_local camps::u64 t_allocations = 0;
}  // namespace

// Out of line, like the library versions they replace.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace camps;
using Clock = std::chrono::steady_clock;
using prefetch::SchemeKind;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  const char* name;
  const char* mix;  ///< Table II id; mix and scheme are unused by the sweep.
  SchemeKind scheme;
  u64 warmup;   ///< Warmup instructions per core.
  u64 measure;  ///< Measured instructions per core.
  bool sweep;   ///< Fig. 5: 12 mixes x 5 paper schemes through exp::Runner.
};

constexpr Spec kSpecs[] = {
    {"hm1_campsmod", "HM1", SchemeKind::kCampsMod, 100'000, 500'000, false},
    // bench_fig5_speedup --quick: (50K + 250K) / 5.
    {"fig5_quick_sweep", "", SchemeKind::kCampsMod, 10'000, 50'000, true},
};

constexpr u32 kSweepJobs = 2;
constexpr u64 kSmokeDivisor = 50;     ///< --smoke shrinks every budget.
constexpr u64 kAuditEvery = 100'000;  ///< Events between audit passes.
constexpr int kSetupsPerRep = 16;     ///< Set-ups timed after each single run.
constexpr int kSweepSetupPasses = 2;  ///< Passes over the 60 after each sweep.

struct Options {
  const Spec* spec = nullptr;
  u64 seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool audit = false;
  bool smoke = false;
  u64 warmup = 0, measure = 0;  ///< Budget after --smoke.
};

system::SystemConfig single_config(const Options& o, SchemeKind scheme) {
  system::SystemConfig cfg = system::table1_config(scheme);
  cfg.core.warmup_instructions = o.warmup;
  cfg.core.measure_instructions = o.measure;
  cfg.seed = o.seed;
  return cfg;
}

exp::ExperimentConfig sweep_config(const Options& o) {
  exp::ExperimentConfig ec;
  ec.warmup_instructions = o.warmup;
  ec.measure_instructions = o.measure;
  ec.seed = o.seed;
  ec.jobs = kSweepJobs;
  return ec;
}

/// The sweep's runs, in exp::Runner's cache order.
std::vector<std::pair<std::string, SchemeKind>> sweep_keys() {
  std::vector<std::pair<std::string, SchemeKind>> keys;
  for (const auto& w : exp::Runner::all_workloads()) {
    for (auto s : prefetch::paper_schemes()) keys.emplace_back(w, s);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string run_label(const std::string& mix, SchemeKind scheme) {
  return mix + "/" + prefetch::to_string(scheme);
}

/// Checker key of a single-run workload.
std::string single_label(const Options& o) {
  return run_label(o.spec->mix, o.spec->scheme);
}

// ---------------------------------------------------------------------------
// Output checks

/// 64-bit FNV-1a, as 16 hex digits.
std::string fnv1a(const std::string& bytes) {
  u64 h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Digest of a run's deterministic JSON (wall_seconds is not in it).
std::string digest_of(const system::RunResults& r) {
  return fnv1a(r.to_json());
}

/// Counts runs and failures. A run fails if it threw, stopped at max_cycles,
/// produced an implausible result, or its digest differs from the first run
/// of the same key.
class Checker {
 public:
  void check(const std::string& key, const system::RunResults& r,
             u64 measure) {
    ++attempted_;
    std::string why;
    if (r.partial) why = "hit max_cycles (partial)";
    if (r.cores.empty() || !(r.geomean_ipc > 0.0) ||
        !std::isfinite(r.geomean_ipc)) {
      why = "no positive IPC";
    }
    for (const auto& c : r.cores) {
      if (c.instructions != measure) why = "measured window incomplete";
    }
    const std::string d = digest_of(r);
    auto [it, first] = digests_.emplace(key, d);
    if (!first && it->second != d) {
      why = "digest " + d + " differs from " + it->second;
    }
    if (why.empty()) {
      std::printf("run %s digest %s\n", key.c_str(), d.c_str());
    } else {
      fail(key + ": " + why);
    }
  }

  void fail(const std::string& what) {
    ++failed_;
    std::printf("FAILED %s\n", what.c_str());
  }

  /// One digest over every key's first digest, in key order.
  std::string combined_digest() const {
    if (digests_.size() == 1) return digests_.begin()->second;
    std::string all;
    for (const auto& [key, d] : digests_) all += key + "=" + d + ",";
    return fnv1a(all);
  }

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

 private:
  std::map<std::string, std::string> digests_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string base;  ///< What the ratio is over, printed beside the value.
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

u64 window_instructions(const system::RunResults& r) {
  u64 n = 0;
  for (const auto& c : r.cores) n += c.instructions;
  return n;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------------------
// Untraced runs

struct Timed {
  system::RunResults r;
  double setup_s = 0.0;
  double wall_s = 0.0;
};

/// Set-up (trace sources + System) and run(), timed separately.
Timed run_single(const system::SystemConfig& cfg, const std::string& mix) {
  Timed t;
  const auto t0 = Clock::now();
  auto sources =
      workload::workload(mix).make_sources(cfg.seed, cfg.pattern_geometry());
  system::System sys(cfg, std::move(sources));
  const auto t1 = Clock::now();
  t.r = sys.run();
  t.wall_s = seconds_between(t1, Clock::now());
  t.setup_s = seconds_between(t0, t1);
  return t;
}

double setup_only(const system::SystemConfig& cfg, const std::string& mix) {
  const auto t0 = Clock::now();
  auto sources =
      workload::workload(mix).make_sources(cfg.seed, cfg.pattern_geometry());
  system::System sys(cfg, std::move(sources));
  return seconds_between(t0, Clock::now());
}

/// Set-up of all the sweep's systems, built one after another.
double sweep_setup_once(const Options& o) {
  const exp::ExperimentConfig ec = sweep_config(o);
  double total = 0.0;
  for (const auto& [mix, scheme] : sweep_keys()) {
    total += setup_only(ec.system_config(scheme), mix);
  }
  return total;
}

struct SweepRun {
  std::unique_ptr<exp::Runner> runner;
  double wall_s = 0.0;
};

SweepRun run_sweep(const exp::ExperimentConfig& ec) {
  SweepRun s;
  s.runner = std::make_unique<exp::Runner>(ec);
  const auto t0 = Clock::now();
  s.runner->run_all(exp::Runner::all_workloads(), prefetch::paper_schemes());
  s.wall_s = seconds_between(t0, Clock::now());
  return s;
}

void check_sweep(Checker& checker, const exp::Runner& runner, u64 measure) {
  for (const auto& [key, r] : runner.results()) {
    checker.check(run_label(key.first, key.second), r, measure);
  }
}

// ---------------------------------------------------------------------------
// Traced runs

/// Times every record a core pulls from its trace source.
class TimedSource final : public trace::TraceSource {
 public:
  explicit TimedSource(std::unique_ptr<trace::TraceSource> inner)
      : inner_(std::move(inner)) {}

  std::optional<trace::TraceRecord> next() override {
    const auto t0 = Clock::now();
    auto r = inner_->next();
    ns_ += static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    if (r) ++records_;
    return r;
  }
  void reset() override { inner_->reset(); }

  u64 records() const { return records_; }
  u64 ns() const { return ns_; }

 private:
  std::unique_ptr<trace::TraceSource> inner_;
  u64 records_ = 0;
  u64 ns_ = 0;
};

/// Event-queue depth after every executed event, as counts per depth.
struct DepthHistogram {
  std::vector<u64> counts = std::vector<u64>(8192, 0);
  void add(size_t depth) {
    if (depth >= counts.size()) counts.resize(depth * 2, 0);
    ++counts[depth];
  }
  u64 total() const {
    u64 n = 0;
    for (u64 c : counts) n += c;
    return n;
  }
  double mean() const {
    double sum = 0.0;
    for (size_t d = 0; d < counts.size(); ++d) {
      sum += static_cast<double>(d) * static_cast<double>(counts[d]);
    }
    return ratio(sum, static_cast<double>(total()));
  }
  double percentile(double p) const {
    const double target = p / 100.0 * static_cast<double>(total());
    double seen = 0.0;
    for (size_t d = 0; d < counts.size(); ++d) {
      seen += static_cast<double>(counts[d]);
      if (counts[d] != 0 && seen >= target) return static_cast<double>(d);
    }
    return 0.0;
  }
  double max() const {
    for (size_t d = counts.size(); d-- > 0;) {
      if (counts[d] != 0) return static_cast<double>(d);
    }
    return 0.0;
  }
};

/// What one traced run saw at the layer boundaries. Counts are whole-run
/// unless the name says window.
struct LayerSample {
  std::string mix;
  system::SystemConfig cfg;
  system::RunResults r;
  double wall_s = 0.0;
  u64 events = 0;
  u64 events_window = 0;
  u64 instructions = 0;
  u64 mem_requests = 0;  ///< Host reads + writes.
  u64 allocations = 0;   ///< operator new calls inside run().
  std::vector<u64> core_records;
  u64 trace_ns = 0;
  DepthHistogram depth;
  u64 loads = 0, stores = 0, stall_cycles = 0, core_cycles = 0;
  u64 l1_hits = 0, l1_accesses = 0, l2_hits = 0, l2_accesses = 0;  // window
  u64 l3_dirty_evictions = 0;                                      // window
};

LayerSample traced_run(const system::SystemConfig& cfg,
                       const std::string& mix) {
  LayerSample s;
  s.mix = mix;
  s.cfg = cfg;
  auto sources =
      workload::workload(mix).make_sources(cfg.seed, cfg.pattern_geometry());
  std::vector<TimedSource*> timed;
  std::vector<std::unique_ptr<trace::TraceSource>> wrapped;
  for (auto& src : sources) {
    auto t = std::make_unique<TimedSource>(std::move(src));
    timed.push_back(t.get());
    wrapped.push_back(std::move(t));
  }
  system::System sys(cfg, std::move(wrapped));
  sim::Simulator& sim = sys.simulator();
  const hmc::HostController& host = sys.memory();

  // The host's request counters reset when the measurement window opens;
  // a drop between two events marks that instant.
  u64 last_requests = 0, pre_window_requests = 0, window_start_event = 0;
  sim.set_event_hook(1, [&] {
    s.depth.add(sim.queue().size());
    const u64 requests = host.reads_issued() + host.writes_issued();
    if (requests < last_requests) {
      pre_window_requests += last_requests;
      window_start_event = sim.events_executed();
    }
    last_requests = requests;
  });

  const u64 allocs0 = t_allocations;
  const auto t0 = Clock::now();
  s.r = sys.run();
  s.wall_s = seconds_between(t0, Clock::now());
  s.allocations = t_allocations - allocs0;

  s.events = sim.events_executed();
  s.events_window = s.events - window_start_event;
  s.mem_requests =
      pre_window_requests + host.reads_issued() + host.writes_issued();
  for (const auto* t : timed) {
    s.core_records.push_back(t->records());
    s.trace_ns += t->ns();
  }
  const auto& caches = sys.caches();
  for (CoreId c = 0; c < cfg.cores; ++c) {
    const auto& core = sys.core(c);
    s.instructions += core.instructions_issued();
    s.loads += core.loads();
    s.stores += core.stores();
    s.stall_cycles += core.stall_cycles();
    s.l1_hits += caches.l1(c).hits();
    s.l1_accesses += caches.l1(c).hits() + caches.l1(c).misses();
    s.l2_hits += caches.l2(c).hits();
    s.l2_accesses += caches.l2(c).hits() + caches.l2(c).misses();
  }
  s.core_cycles = u64{cfg.cores} * (sim.now() / sim::kCpuTicksPerCycle);
  s.l3_dirty_evictions = caches.l3().dirty_evictions();
  return s;
}

// ---------------------------------------------------------------------------
// Layer probes at the traced run's measured parameters

/// EventQueue schedule/pop cost at a fixed depth: the queue is filled to
/// `depth`, then each step pops the earliest event and schedules one
/// uniformly 1..4096 ticks later (the hold model). Median of five timings.
double queue_ns_per_op(size_t depth, u64 seed) {
  constexpr u64 kSteps = 1'000'000;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    sim::EventQueue q;
    Rng rng(seed + static_cast<u64>(rep));
    for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
      q.schedule(rng.next_range(1, 4096), [] {});
    }
    const auto t0 = Clock::now();
    for (u64 i = 0; i < kSteps; ++i) {
      auto [when, fn] = q.pop();
      fn();
      q.schedule(when + rng.next_range(1, 4096), [] {});
    }
    const double s = seconds_between(t0, Clock::now());
    samples.push_back(s * 1e9 / (2.0 * static_cast<double>(kSteps)));
  }
  return median(samples);
}

/// Drains fresh trace sources for the record counts the traced runs pulled;
/// host ns per record.
double drain_ns_per_record(const std::vector<LayerSample>& runs) {
  u64 records = 0, sink = 0;
  double seconds = 0.0;
  for (const auto& s : runs) {
    auto sources = workload::workload(s.mix).make_sources(
        s.cfg.seed, s.cfg.pattern_geometry());
    const auto t0 = Clock::now();
    for (size_t c = 0; c < sources.size(); ++c) {
      for (u64 i = 0; i < s.core_records[c]; ++i) {
        const auto r = sources[c]->next();
        if (!r) break;
        sink += r->addr + r->gap;
        ++records;
      }
    }
    seconds += seconds_between(t0, Clock::now());
  }
  std::printf("trace drain: %llu records (checksum %llx)\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(sink));
  return ratio(seconds * 1e9, static_cast<double>(records));
}

// ---------------------------------------------------------------------------
// Per-layer metrics over one traced run or the sweep's traced runs

template <typename F>
double sum_of(const std::vector<LayerSample>& runs, F f) {
  double total = 0.0;
  for (const auto& s : runs) total += static_cast<double>(f(s));
  return total;
}

template <typename F>
double mean_of(const std::vector<LayerSample>& runs, F f) {
  return ratio(sum_of(runs, f), static_cast<double>(runs.size()));
}

/// Host cost of the untraced run as exp::Runner reports it; a single run
/// reports itself as a sweep of one run on one job.
struct HostCost {
  u64 runs = 0, events = 0;
  double run_s_sum = 0.0, sweep_s = 0.0, longest_run_s = 0.0;
  u32 jobs = 1;
  double campsmod_vs_base = 0.0;  ///< 0 when the workload is a single run.
};

std::vector<Metric> layer_metrics(const std::vector<LayerSample>& runs,
                                  const HostCost& host, u64 spills,
                                  u64 seed) {
  using S = LayerSample;
  const bool pooled = runs.size() > 1;
  const char* mean_note = pooled ? "mean over runs of " : "";
  const double events = sum_of(runs, [](const S& s) { return s.events; });
  const double events_window =
      sum_of(runs, [](const S& s) { return s.events_window; });
  const double instr = sum_of(runs, [](const S& s) { return s.instructions; });
  const double kinstr = instr / 1000.0;
  const double reqs = sum_of(runs, [](const S& s) { return s.mem_requests; });
  const double run_wall = sum_of(runs, [](const S& s) { return s.wall_s; });
  const double allocs = sum_of(runs, [](const S& s) { return s.allocations; });
  const double records = sum_of(runs, [](const S& s) {
    u64 n = 0;
    for (u64 c : s.core_records) n += c;
    return n;
  });
  const double trace_s =
      sum_of(runs, [](const S& s) { return s.trace_ns; }) / 1e9;
  const double depth_mean =
      mean_of(runs, [](const S& s) { return s.depth.mean(); });
  double depth_max = 0.0;
  for (const auto& s : runs) depth_max = std::max(depth_max, s.depth.max());

  auto r_mean = [&](auto f) {
    return mean_of(runs, [&](const S& s) { return f(s.r); });
  };
  auto r_sum = [&](auto f) {
    return sum_of(runs, [&](const S& s) { return f(s.r); });
  };
  const double mem_reads = r_sum([](const auto& r) { return r.memory_reads; });
  const double mem_writes =
      r_sum([](const auto& r) { return r.memory_writes; });
  const double row_hits = r_sum([](const auto& r) { return r.row_hits; });
  const double row_conflicts =
      r_sum([](const auto& r) { return r.row_conflicts; });
  const double row_accesses =
      row_hits + row_conflicts +
      r_sum([](const auto& r) { return r.row_empties; });
  const double prefetches = r_sum([](const auto& r) { return r.prefetches; });
  const double buffer_hits = r_sum([](const auto& r) { return r.buffer_hits; });
  const double buffer_lookups =
      buffer_hits + r_sum([](const auto& r) { return r.buffer_misses; });
  const double useful_rows = r_sum([](const auto& r) {
    return r.prefetch_accuracy * static_cast<double>(r.prefetches);
  });

  const std::string m = mean_note;
  std::vector<Metric> out = {
      {"sim.events", "count", events,
       "whole run; " + std::to_string(static_cast<u64>(events_window)) +
           " inside the measurement window"},
      {"sim.events_per_kinstr", "events/kinstr", ratio(events, kinstr),
       "whole-run events / whole-run instructions"},
      {"sim.events_per_mem_req", "events/req", ratio(events, reqs),
       "whole-run events / whole-run host reads+writes (" +
           std::to_string(static_cast<u64>(reqs)) + ")"},
      {"sim.events_per_s", "events/s", ratio(events, run_wall),
       "whole-run events / traced run() seconds"},
      {"sim.queue_depth_mean", "events", depth_mean,
       m + "queue size after every event"},
      {"sim.queue_depth_p99", "events",
       mean_of(runs, [](const S& s) { return s.depth.percentile(99.0); }),
       m + "per-event samples"},
      {"sim.queue_depth_max", "events", depth_max, "max over every event"},
      {"sim.host_ns_per_event", "ns", ratio(run_wall * 1e9, events),
       "traced run() ns / whole-run events"},
      {"sim.event_heap_spills", "count", static_cast<double>(spills),
       "Event captures spilled to the heap during traced runs"},
      {"sim.queue_ns_per_op_at_depth", "ns",
       queue_ns_per_op(static_cast<size_t>(std::lround(depth_mean)), seed),
       "EventQueue schedule or pop at depth " +
           std::to_string(std::lround(depth_mean)) + ", hold model"},
      {"alloc.count", "count", allocs, "operator new calls inside run()"},
      {"alloc.per_kinstr", "allocs/kinstr", ratio(allocs, kinstr),
       "allocations / whole-run instructions"},
      {"trace.records", "count", records, "records pulled by cores"},
      {"trace.host_s", "s", trace_s, "host seconds inside TraceSource::next"},
      {"trace.host_share", "ratio", ratio(trace_s, run_wall),
       "trace.host_s / traced run() seconds"},
      {"trace.ns_per_record", "ns", drain_ns_per_record(runs),
       "standalone drain of fresh sources, same record counts"},
      {"cpu.loads", "count", sum_of(runs, [](const S& s) { return s.loads; }),
       "whole run"},
      {"cpu.stores", "count", sum_of(runs, [](const S& s) { return s.stores; }),
       "whole run"},
      {"cpu.stall_share", "ratio",
       ratio(sum_of(runs, [](const S& s) { return s.stall_cycles; }),
             sum_of(runs, [](const S& s) { return s.core_cycles; })),
       "simulated stall cycles / (cores x whole-run cycles)"},
      {"cache.l1_hit_rate", "ratio",
       ratio(sum_of(runs, [](const S& s) { return s.l1_hits; }),
             sum_of(runs, [](const S& s) { return s.l1_accesses; })),
       "window"},
      {"cache.l2_hit_rate", "ratio",
       ratio(sum_of(runs, [](const S& s) { return s.l2_hits; }),
             sum_of(runs, [](const S& s) { return s.l2_accesses; })),
       "window"},
      {"cache.l3_mpki", "miss/kinstr", r_mean([](const auto& r) {
         return r.mpki;
       }),
       m + "window L3 misses / window kinstr"},
      {"cache.l3_dirty_evictions", "count",
       sum_of(runs, [](const S& s) { return s.l3_dirty_evictions; }), "window"},
      {"cache.amat_cycles", "cycles", r_mean([](const auto& r) {
         return r.amat_cycles;
       }),
       m + "window, simulated CPU cycles"},
      {"cache.mem_reads", "count", mem_reads, "window"},
      {"cache.mem_writes", "count", mem_writes, "window"},
      {"cache.write_share", "ratio", ratio(mem_writes, mem_reads + mem_writes),
       "window memory writes / (reads + writes)"},
      {"hmc.total_read_cycles_p50", "cycles",
       r_mean([](const auto& r) { return r.latency.total_read.p50; }),
       m + "window"},
      {"hmc.total_read_cycles_p95", "cycles",
       r_mean([](const auto& r) { return r.latency.total_read.p95; }),
       m + "window"},
      {"hmc.host_queue_cycles_p95", "cycles",
       r_mean([](const auto& r) { return r.latency.host_queue.p95; }),
       m + "window"},
      {"hmc.vault_queue_cycles_p50", "cycles",
       r_mean([](const auto& r) { return r.latency.vault_queue.p50; }),
       m + "window"},
      {"hmc.vault_queue_cycles_p95", "cycles",
       r_mean([](const auto& r) { return r.latency.vault_queue.p95; }),
       m + "window"},
      {"hmc.bank_service_cycles_mean", "cycles",
       r_mean([](const auto& r) { return r.latency.bank_service.mean; }),
       m + "window"},
      {"hmc.link_down_util", "ratio",
       r_mean([](const auto& r) { return r.link_down_utilization; }),
       m + "window"},
      {"hmc.link_up_util", "ratio",
       r_mean([](const auto& r) { return r.link_up_utilization; }),
       m + "window"},
      {"hmc.row_hits", "count", row_hits, "window"},
      {"hmc.row_conflicts", "count", row_conflicts, "window"},
      {"hmc.row_conflict_rate", "ratio", ratio(row_conflicts, row_accesses),
       "window conflicts / bank accesses"},
      {"hmc.reads_poisoned", "count",
       r_sum([](const auto& r) { return r.faults.host_poisoned; }), "window"},
      {"prefetch.issued", "count", prefetches, "window rows prefetched"},
      {"prefetch.accuracy", "ratio", ratio(useful_rows, prefetches),
       "window useful rows / prefetched rows"},
      {"prefetch.buffer_hits", "count", buffer_hits, "window"},
      {"prefetch.buffer_hit_rate", "ratio", ratio(buffer_hits, buffer_lookups),
       "window buffer hits / lookups"},
      {"exp.runs", "count", static_cast<double>(host.runs),
       "simulations in the untraced run"},
      {"exp.events", "count", static_cast<double>(host.events),
       "whole-run events, untraced"},
      {"exp.run_s_sum", "s", host.run_s_sum, "summed per-run run() seconds"},
      {"exp.parallel_efficiency", "ratio",
       ratio(host.run_s_sum, host.sweep_s * host.jobs),
       "run_s_sum / (wall seconds x " + std::to_string(host.jobs) + " jobs)"},
      {"exp.longest_run_s", "s", host.longest_run_s, "slowest single run"},
      {"model.campsmod_vs_base", "x", host.campsmod_vs_base,
       host.campsmod_vs_base > 0.0
           ? "Fig. 5 AVG geomean speedup; paper reports 1.179"
           : "not applicable to a single run (0)"},
      {"traced_wall_ratio", "x", ratio(run_wall, host.run_s_sum),
       "traced / untraced run() seconds, summed over runs"},
  };
  return out;
}

// ---------------------------------------------------------------------------
// Modes

struct Outcome {
  std::vector<Metric> metrics;
  std::string digest;
};

Outcome end_to_end(const Options& o, Checker& checker) {
  struct Rep {
    double wall_s;
    u64 instructions;  ///< Window instructions over all cores (and runs).
    double ipc;
  };
  const exp::ExperimentConfig ec = sweep_config(o);
  const auto cfg = single_config(o, o.spec->scheme);
  auto one_rep = [&]() -> Rep {
    if (o.spec->sweep) {
      SweepRun s = run_sweep(ec);
      check_sweep(checker, *s.runner, o.measure);
      std::vector<double> ipcs;
      u64 instr = 0;
      for (const auto& [key, r] : s.runner->results()) {
        ipcs.push_back(r.geomean_ipc);
        instr += window_instructions(r);
      }
      std::printf("sweep %.3f s, %zu runs, events %llu\n", s.wall_s,
                  s.runner->results().size(),
                  static_cast<unsigned long long>(s.runner->timing().events));
      return {s.wall_s, instr, system::geometric_mean(ipcs)};
    }
    const Timed t = run_single(cfg, o.spec->mix);
    checker.check(single_label(o), t.r, o.measure);
    std::printf("run %.3f s, setup %.2f ms, events %llu\n", t.wall_s,
                t.setup_s * 1e3,
                static_cast<unsigned long long>(t.r.events_executed));
    return {t.wall_s, window_instructions(t.r), t.r.geomean_ipc};
  };

  // Timed runs while another one fits in --seconds (at least one), so a run
  // ends on time whatever one repetition costs. Set-up is too short to time
  // once, so it is repeated alone after every run: host speed drifts over
  // tens of seconds, and its median then spans the same window as wall_s.
  std::vector<double> walls, mips, setups, rep_spans;
  double ipc = 0.0;
  const auto start = Clock::now();
  do {
    const auto rep_start = Clock::now();
    const Rep rep = one_rep();
    walls.push_back(rep.wall_s);
    mips.push_back(static_cast<double>(rep.instructions) / rep.wall_s / 1e6);
    ipc = rep.ipc;
    if (o.spec->sweep) {
      for (int i = 0; i < kSweepSetupPasses; ++i) {
        setups.push_back(sweep_setup_once(o));
      }
    } else {
      for (int i = 0; i < kSetupsPerRep; ++i) {
        setups.push_back(setup_only(cfg, o.spec->mix));
      }
    }
    rep_spans.push_back(seconds_between(rep_start, Clock::now()));
  } while (seconds_between(start, Clock::now()) + median(rep_spans) <=
           o.seconds);
  const double rss = peak_rss_mb();

  const std::string reps = std::to_string(walls.size()) + " runs";
  Outcome out;
  out.metrics = {
      {"wall_s", "s", median(walls),
       "median of " + reps + (o.spec->sweep ? " of Runner::run_all"
                                            : " of System::run")},
      {"sim_mips", "Minstr/s", median(mips),
       "median; window instructions over all cores / wall"},
      {"setup_s", "s", median(setups),
       "median of " + std::to_string(setups.size()) +
           (o.spec->sweep ? " passes building all sweep systems"
                          : " set-ups (sources + System)")},
      {"peak_rss_mb", "MB", rss, "ru_maxrss after the timed runs"},
      {"sim_ipc", "instr/cycle", ipc,
       o.spec->sweep ? "geomean over the sweep's geomean IPCs"
                     : "RunResults::geomean_ipc"},
  };
  out.digest = checker.combined_digest();
  return out;
}

Outcome per_layer(const Options& o, Checker& checker) {
  std::vector<LayerSample> runs;
  HostCost host;
  u64 spills = 0;
  if (o.spec->sweep) {
    const exp::ExperimentConfig ec = sweep_config(o);
    SweepRun s = run_sweep(ec);
    check_sweep(checker, *s.runner, o.measure);
    const auto& timing = s.runner->timing();
    host.runs = timing.runs;
    host.events = timing.events;
    host.run_s_sum = timing.run_seconds;
    host.sweep_s = timing.sweep_seconds;
    host.jobs = kSweepJobs;
    for (const auto& [key, r] : s.runner->results()) {
      host.longest_run_s = std::max(host.longest_run_s, r.wall_seconds);
    }
    host.campsmod_vs_base = s.runner->mean_speedup(
        exp::Runner::all_workloads(), SchemeKind::kCampsMod, SchemeKind::kBase);

    const auto keys = sweep_keys();
    runs.resize(keys.size());
    std::vector<exp::SimFn> sims;
    for (size_t i = 0; i < keys.size(); ++i) {
      LayerSample* slot = &runs[i];
      const auto cfg = ec.system_config(keys[i].second);
      const std::string mix = keys[i].first;
      sims.push_back([slot, cfg, mix] {
        *slot = traced_run(cfg, mix);
        return slot->r;
      });
    }
    const u64 spills_before = sim::Event::heap_allocation_count();
    exp::run_parallel(std::move(sims), kSweepJobs);
    spills = sim::Event::heap_allocation_count() - spills_before;
    for (size_t i = 0; i < keys.size(); ++i) {
      checker.check(run_label(keys[i].first, keys[i].second), runs[i].r,
                    o.measure);
    }
  } else {
    const auto cfg = single_config(o, o.spec->scheme);
    const Timed t = run_single(cfg, o.spec->mix);
    checker.check(single_label(o), t.r, o.measure);
    host.runs = 1;
    host.events = t.r.events_executed;
    host.run_s_sum = t.r.wall_seconds;
    host.sweep_s = t.wall_s;
    host.longest_run_s = t.r.wall_seconds;
    const u64 spills_before = sim::Event::heap_allocation_count();
    runs.push_back(traced_run(cfg, o.spec->mix));
    spills = sim::Event::heap_allocation_count() - spills_before;
    checker.check(single_label(o), runs.back().r, o.measure);
  }
  Outcome out;
  out.metrics = layer_metrics(runs, host, spills, o.seed);
  out.digest = checker.combined_digest();
  return out;
}

Outcome audited(const Options& o, Checker& checker) {
  if (o.spec->sweep) {
    exp::ExperimentConfig ec = sweep_config(o);
    ec.audit_every = kAuditEvery;
    SweepRun s = run_sweep(ec);
    check_sweep(checker, *s.runner, o.measure);
    std::printf("audited sweep: %.3f s, clean\n", s.wall_s);
  } else {
    auto cfg = single_config(o, o.spec->scheme);
    cfg.audit_every = kAuditEvery;
    const Timed t = run_single(cfg, o.spec->mix);
    checker.check(single_label(o), t.r, o.measure);
    std::printf("audited run: %.3f s, clean\n", t.wall_s);
  }
  return Outcome{{}, checker.combined_digest()};
}

// ---------------------------------------------------------------------------
// Command line

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N "
               "(--seconds S --trace 0|1 | --audit) [--smoke]\n"
               "workloads:",
               argv0);
  for (const auto& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seconds = false, have_trace = false;
  auto number = [&](int& i, const char* flag) {
    if (i + 1 >= argc) usage(argv[0], std::string(flag) + " needs a value");
    char* end = nullptr;
    const double v = std::strtod(argv[++i], &end);
    if (end == argv[i] || *end != '\0' || !(v >= 0.0)) {
      usage(argv[0], std::string("bad value for ") + flag + ": " + argv[i]);
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      const std::string name = argv[++i];
      for (const auto& s : kSpecs) {
        if (name == s.name) o.spec = &s;
      }
      if (o.spec == nullptr) usage(argv[0], "unknown workload " + name);
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') usage(argv[0], "bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = number(i, "--seconds");
      have_seconds = true;
    } else if (arg == "--trace") {
      o.trace = static_cast<int>(number(i, "--trace"));
      if (o.trace > 1) usage(argv[0], "--trace takes 0 or 1");
      have_trace = true;
    } else if (arg == "--audit") {
      o.audit = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      usage(argv[0], "unknown argument " + arg);
    }
  }
  if (o.spec == nullptr) usage(argv[0], "--workload is required");
  if (!o.audit && !(have_seconds && have_trace)) {
    usage(argv[0], "--seconds and --trace are required");
  }
  const u64 div = o.smoke ? kSmokeDivisor : 1;
  o.warmup = o.spec->warmup / div;
  o.measure = o.spec->measure / div;
  return o;
}

void print_result(const Options& o, const Outcome& out,
                  const Checker& checker) {
  bool finite = true;
  for (const auto& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("metric %-30s %14.6g %-14s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
  std::printf("workload %s, seed %llu, %llu+%llu instr/core, digest %s\n",
              o.spec->name, static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(o.warmup),
              static_cast<unsigned long long>(o.measure), out.digest.c_str());
  JsonWriter w;
  w.begin_object();
  w.field("correct", checker.failed() == 0 && finite);
  w.field("attempted", checker.attempted());
  w.field("failed", checker.failed());
  w.field("digest", std::string_view(out.digest));
  w.key("metrics");
  w.begin_object();
  for (const auto& m : out.metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", std::string_view(m.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Checker checker;
  try {
    const Outcome out = o.audit         ? audited(o, checker)
                        : o.trace == 0 ? end_to_end(o, checker)
                                       : per_layer(o, checker);
    print_result(o, out, checker);
  } catch (const std::exception& e) {
    // A run that throws counts as attempted and failed; no metrics follow.
    checker.fail(std::string("threw: ") + e.what());
    print_result(o, Outcome{{}, checker.combined_digest()}, checker);
    return 1;
  }
  return 0;
}
