// Experiment runner: executes (workload x scheme) simulations, caches the
// results in-process, and offers the normalizations the paper's figures
// report (speedup vs BASE, geometric means per workload class).
//
// Sweeps parallelize across simulations: run_all() fans independent runs
// out over a thread pool (each run owns a private System; nothing mutable
// is shared), then merges results into the cache on the calling thread.
// A run's result depends only on (config, workload, seed) — never on
// scheduling order — so jobs=N and jobs=1 produce identical tables.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/obs_config.hpp"
#include "system/system.hpp"
#include "workload/workloads.hpp"

namespace camps::exp {

struct ExperimentConfig {
  /// Per-run simulation scale. Full Table I system; the instruction budget
  /// trades bench runtime for statistical stability.
  u64 warmup_instructions = 200'000;
  u64 measure_instructions = 1'000'000;
  u64 seed = 1;
  u64 max_cycles = 400'000'000;
  /// Model self-audit interval in executed events (0 = off); copied into
  /// every run's SystemConfig. Benches arm it with --audit.
  u64 audit_every = 0;
  bool verbose = false;  ///< Print one progress line per run to stderr.

  /// Worker threads for parallel sweeps; 0 = all hardware threads.
  u32 jobs = 0;

  /// Observability knobs copied into every run's SystemConfig (tracing and
  /// epoch sampling are per-System, so sweeps stay deterministic).
  obs::ObsConfig obs;

  /// Builds the Table I SystemConfig for one scheme under this experiment
  /// scale. Hook point for ablations: tweak the returned config.
  system::SystemConfig system_config(prefetch::SchemeKind scheme) const;
};

/// One simulation closure; must be independent of every other entry in the
/// same batch (no shared mutable state).
using SimFn = std::function<system::RunResults()>;

/// Executes independent simulations on `jobs` worker threads (0 = all
/// hardware threads) and returns their results in input order. Results are
/// deterministic: scheduling order cannot affect any entry.
std::vector<system::RunResults> run_parallel(std::vector<SimFn> sims,
                                             u32 jobs);

/// Host-side cost of the simulations a Runner executed (cache misses only).
struct SweepTiming {
  u64 runs = 0;             ///< Simulations actually executed.
  u64 events = 0;           ///< Simulator events dispatched across them.
  double run_seconds = 0;   ///< Summed per-run wall time (~CPU time).
  double sweep_seconds = 0; ///< Wall-clock spent inside run_all()/result().
  double events_per_second() const {
    return run_seconds > 0 ? static_cast<double>(events) / run_seconds : 0.0;
  }
};

class Runner {
 public:
  explicit Runner(const ExperimentConfig& config = {});

  /// One unit of sweep work. `workload` is a Table II id, or a single
  /// benchmark name when `solo` is set (the fairness-metric denominator).
  struct Job {
    std::string workload;
    prefetch::SchemeKind scheme;
    bool solo = false;
  };

  /// Runs every not-yet-cached job in parallel (config().jobs workers) and
  /// caches the results. Later result()/speedup()/solo_ipc() calls on these
  /// keys are cache hits, so benches front-load their whole sweep here.
  void run_all(const std::vector<Job>& jobs);

  /// Convenience: the (workloads x schemes) cross product.
  void run_all(const std::vector<std::string>& workloads,
               const std::vector<prefetch::SchemeKind>& schemes);

  /// A run the cache cannot key on: a hand-built SystemConfig (ablation
  /// knob, fault campaign, cube generation) for one Table II workload.
  struct Sim {
    system::SystemConfig config;
    std::string workload;
  };

  /// Runs `sims` uncached, in parallel like run_all(), and returns their
  /// results in input order.
  std::vector<system::RunResults> run_sims(const std::vector<Sim>& sims);

  /// Runs (or returns the cached) simulation of `workload` under `scheme`.
  const system::RunResults& result(const std::string& workload,
                                   prefetch::SchemeKind scheme);

  /// Speedup of `scheme` over `baseline` on one workload (IPC geomeans).
  double speedup(const std::string& workload, prefetch::SchemeKind scheme,
                 prefetch::SchemeKind baseline);

  /// Geometric mean of per-workload speedups across `workloads`.
  double mean_speedup(const std::vector<std::string>& workloads,
                      prefetch::SchemeKind scheme,
                      prefetch::SchemeKind baseline);

  /// IPC of `benchmark` running alone on a single-core Table I system
  /// under `scheme` (cached). The denominator of the multiprogramming
  /// fairness metrics.
  double solo_ipc(const std::string& benchmark, prefetch::SchemeKind scheme);

  /// Weighted speedup of a mix: sum_i IPC_i / soloIPC_i (system throughput
  /// in "jobs' worth of progress"; Snavely & Tullsen, ASPLOS 2000).
  double weighted_speedup(const std::string& workload,
                          prefetch::SchemeKind scheme);

  /// Harmonic mean of per-core speedups: N / sum_i (soloIPC_i / IPC_i) —
  /// balances throughput and fairness (Luo et al., ISPASS 2001).
  double harmonic_speedup(const std::string& workload,
                          prefetch::SchemeKind scheme);

  const ExperimentConfig& config() const { return cfg_; }

  /// Accumulated host-side cost of every simulation this runner executed.
  const SweepTiming& timing() const { return timing_; }

  using Cache = std::map<std::pair<std::string, prefetch::SchemeKind>,
                         system::RunResults>;

  /// Every cached (workload, scheme) -> results entry, in deterministic map
  /// order. The exporters (--stats-json, --trace-out) iterate this.
  const Cache& results() const { return cache_; }

  /// All Table II ids, in paper order.
  static std::vector<std::string> all_workloads();
  /// Ids of one class ("HM", "LM", "MX").
  static std::vector<std::string> workloads_of(workload::WorkloadClass cls);

 private:
  /// Builds the simulation closure for one uncached job.
  SimFn make_sim(const Job& job) const;
  SimFn make_sim(const Sim& sim) const;

  /// Runs `sims` on config().jobs workers and accounts their host cost.
  std::vector<system::RunResults> execute(std::vector<SimFn> sims);

  ExperimentConfig cfg_;
  SweepTiming timing_;
  Cache cache_;
  std::map<std::pair<std::string, prefetch::SchemeKind>, double> solo_cache_;
};

}  // namespace camps::exp
