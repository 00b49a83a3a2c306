#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace camps::exp {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

system::SystemConfig ExperimentConfig::system_config(
    prefetch::SchemeKind scheme) const {
  system::SystemConfig cfg = system::table1_config(scheme);
  cfg.core.warmup_instructions = warmup_instructions;
  cfg.core.measure_instructions = measure_instructions;
  cfg.seed = seed;
  cfg.max_cycles = max_cycles;
  cfg.audit_every = audit_every;
  cfg.obs = obs;
  return cfg;
}

std::vector<system::RunResults> run_parallel(std::vector<SimFn> sims,
                                             u32 jobs) {
  std::vector<system::RunResults> results(sims.size());
  if (sims.empty()) return results;
  if (jobs == 0) jobs = ThreadPool::default_threads();
  jobs = std::min<u32>(jobs, static_cast<u32>(sims.size()));

  if (jobs <= 1) {
    // No point spinning up workers for a serial sweep; same results either
    // way (each sim is self-contained), just less overhead.
    for (size_t i = 0; i < sims.size(); ++i) results[i] = sims[i]();
    return results;
  }

  ThreadPool pool(jobs);
  for (size_t i = 0; i < sims.size(); ++i) {
    pool.submit([&results, &sims, i] { results[i] = sims[i](); });
  }
  pool.wait_idle();
  return results;
}

Runner::Runner(const ExperimentConfig& config) : cfg_(config) {}

SimFn Runner::make_sim(const Job& job) const {
  // Everything a worker needs is captured by value; the only state a sim
  // touches afterwards is its own System.
  if (job.solo) {
    system::SystemConfig sys_cfg = cfg_.system_config(job.scheme);
    sys_cfg.cores = 1;
    const u64 seed = cfg_.seed;
    const std::string benchmark = job.workload;
    const bool verbose = cfg_.verbose;
    return [sys_cfg, seed, benchmark, verbose] {
      if (verbose) {
        progress_line("[run] %s (solo) / %s ...", benchmark.c_str(),
                      prefetch::to_string(sys_cfg.scheme));
      }
      const auto& profile = trace::benchmark(benchmark);
      std::vector<std::unique_ptr<trace::TraceSource>> sources;
      sources.push_back(
          profile.make_source(seed * 1000003 + 1, sys_cfg.pattern_geometry()));
      system::System sys(sys_cfg, std::move(sources));
      return sys.run();
    };
  }
  return make_sim(Sim{cfg_.system_config(job.scheme), job.workload});
}

SimFn Runner::make_sim(const Sim& sim) const {
  const system::SystemConfig sys_cfg = sim.config;
  const std::string workload = sim.workload;
  const bool verbose = cfg_.verbose;
  return [sys_cfg, workload, verbose] {
    if (verbose) {
      progress_line("[run] %s / %s ...", workload.c_str(),
                    prefetch::to_string(sys_cfg.scheme));
    }
    auto results = system::make_workload_system(sys_cfg, workload)->run();
    if (results.partial && verbose) {
      progress_line("[run] %s / %s hit the cycle bound (partial)",
                    workload.c_str(), prefetch::to_string(sys_cfg.scheme));
    }
    return results;
  };
}

std::vector<system::RunResults> Runner::execute(std::vector<SimFn> sims) {
  if (sims.empty()) return {};
  const auto sweep_start = std::chrono::steady_clock::now();
  const size_t count = sims.size();
  auto results = run_parallel(std::move(sims), cfg_.jobs);
  for (const auto& r : results) {
    timing_.runs += 1;
    timing_.events += r.events_executed;
    timing_.run_seconds += r.wall_seconds;
  }
  timing_.sweep_seconds += seconds_since(sweep_start);

  if (cfg_.verbose) {
    const u32 jobs_used =
        cfg_.jobs == 0 ? ThreadPool::default_threads() : cfg_.jobs;
    progress_line(
        "[sweep] %llu runs: %.1fs wall at jobs=%u (%.1fs of simulation, "
        "%.2f Mevents/s per worker)",
        static_cast<unsigned long long>(count), seconds_since(sweep_start),
        jobs_used, timing_.run_seconds, timing_.events_per_second() / 1e6);
  }
  return results;
}

void Runner::run_all(const std::vector<Job>& jobs) {
  // Deduplicate and drop cache hits, preserving first-seen order.
  std::vector<Job> todo;
  for (const auto& job : jobs) {
    const auto key = std::make_pair(job.workload, job.scheme);
    const bool cached =
        job.solo ? solo_cache_.count(key) != 0 : cache_.count(key) != 0;
    if (cached) continue;
    bool seen = false;
    for (const auto& t : todo) {
      if (t.solo == job.solo && t.scheme == job.scheme &&
          t.workload == job.workload) {
        seen = true;
        break;
      }
    }
    if (!seen) todo.push_back(job);
  }
  std::vector<SimFn> sims;
  sims.reserve(todo.size());
  for (const auto& job : todo) sims.push_back(make_sim(job));
  auto results = execute(std::move(sims));

  // Merge on the calling thread: by here every worker is done, so the
  // cache never sees concurrent writers and a key is inserted exactly once.
  for (size_t i = 0; i < results.size(); ++i) {
    const auto key = std::make_pair(todo[i].workload, todo[i].scheme);
    if (todo[i].solo) {
      solo_cache_.emplace(key, results[i].cores[0].ipc);
    } else {
      cache_.emplace(key, std::move(results[i]));
    }
  }
}

void Runner::run_all(const std::vector<std::string>& workloads,
                     const std::vector<prefetch::SchemeKind>& schemes) {
  std::vector<Job> jobs;
  jobs.reserve(workloads.size() * schemes.size());
  for (const auto& w : workloads) {
    for (auto scheme : schemes) jobs.push_back(Job{w, scheme, false});
  }
  run_all(jobs);
}

std::vector<system::RunResults> Runner::run_sims(
    const std::vector<Sim>& sims) {
  std::vector<SimFn> fns;
  fns.reserve(sims.size());
  for (const auto& sim : sims) fns.push_back(make_sim(sim));
  return execute(std::move(fns));
}

const system::RunResults& Runner::result(const std::string& workload,
                                         prefetch::SchemeKind scheme) {
  const auto key = std::make_pair(workload, scheme);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  run_all(std::vector<Job>{Job{workload, scheme, false}});
  return cache_.at(key);
}

double Runner::speedup(const std::string& workload,
                       prefetch::SchemeKind scheme,
                       prefetch::SchemeKind baseline) {
  const double base_ipc = result(workload, baseline).geomean_ipc;
  const double ipc = result(workload, scheme).geomean_ipc;
  return base_ipc <= 0.0 ? 0.0 : ipc / base_ipc;
}

double Runner::mean_speedup(const std::vector<std::string>& workloads,
                            prefetch::SchemeKind scheme,
                            prefetch::SchemeKind baseline) {
  std::vector<double> speedups;
  speedups.reserve(workloads.size());
  for (const auto& w : workloads) {
    speedups.push_back(speedup(w, scheme, baseline));
  }
  return system::geometric_mean(speedups);
}

double Runner::solo_ipc(const std::string& benchmark,
                        prefetch::SchemeKind scheme) {
  const auto key = std::make_pair(benchmark, scheme);
  auto it = solo_cache_.find(key);
  if (it != solo_cache_.end()) return it->second;
  run_all(std::vector<Job>{Job{benchmark, scheme, true}});
  return solo_cache_.at(key);
}

double Runner::weighted_speedup(const std::string& workload,
                                prefetch::SchemeKind scheme) {
  const auto& mix = workload::workload(workload);
  const auto& results = result(workload, scheme);
  double sum = 0.0;
  for (u32 c = 0; c < workload::kCoresPerWorkload; ++c) {
    const double solo = solo_ipc(mix.benchmarks[c], scheme);
    if (solo > 0.0) sum += results.cores[c].ipc / solo;
  }
  return sum;
}

double Runner::harmonic_speedup(const std::string& workload,
                                prefetch::SchemeKind scheme) {
  const auto& mix = workload::workload(workload);
  const auto& results = result(workload, scheme);
  double denom = 0.0;
  for (u32 c = 0; c < workload::kCoresPerWorkload; ++c) {
    const double solo = solo_ipc(mix.benchmarks[c], scheme);
    const double ipc = results.cores[c].ipc;
    if (ipc <= 0.0) return 0.0;
    denom += solo / ipc;
  }
  return denom == 0.0
             ? 0.0
             : static_cast<double>(workload::kCoresPerWorkload) / denom;
}

std::vector<std::string> Runner::all_workloads() {
  std::vector<std::string> out;
  for (const auto& w : workload::table2_workloads()) out.push_back(w.id);
  return out;
}

std::vector<std::string> Runner::workloads_of(workload::WorkloadClass cls) {
  std::vector<std::string> out;
  for (const auto& w : workload::table2_workloads()) {
    if (w.cls == cls) out.push_back(w.id);
  }
  return out;
}

}  // namespace camps::exp
