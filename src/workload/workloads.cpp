#include "workload/workloads.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace camps::workload {
namespace {

std::vector<Workload> build_table2() {
  using C = WorkloadClass;
  return {
      {"HM1", C::kHM, {"bwaves", "gems", "gcc", "lbm", "bwaves", "gcc", "lbm", "gems"}},
      {"HM2", C::kHM, {"milc", "gems", "sphinx", "omnetpp", "sphinx", "milc", "omnetpp", "gems"}},
      {"HM3", C::kHM, {"gcc", "mcf", "lbm", "milc", "mcf", "gcc", "milc", "lbm"}},
      {"HM4", C::kHM, {"sphinx", "gcc", "lbm", "bwaves", "sphinx", "bwaves", "lbm", "gcc"}},
      {"LM1", C::kLM, {"cactus", "bzip2", "astar", "wrf", "wrf", "bzip2", "cactus", "astar"}},
      {"LM2", C::kLM, {"tonto", "zeusmp", "h264ref", "astar", "zeusmp", "h264ref", "astar", "tonto"}},
      {"LM3", C::kLM, {"bzip2", "zeusmp", "cactus", "tonto", "cactus", "zeusmp", "bzip2", "tonto"}},
      {"LM4", C::kLM, {"astar", "tonto", "bzip2", "h264ref", "tonto", "astar", "bzip2", "h264ref"}},
      {"MX1", C::kMX, {"bwaves", "gcc", "cactus", "wrf", "cactus", "gcc", "wrf", "bwaves"}},
      {"MX2", C::kMX, {"gems", "sphinx", "tonto", "h264ref", "sphinx", "gems", "h264ref", "tonto"}},
      {"MX3", C::kMX, {"milc", "lbm", "wrf", "bzip2", "lbm", "bzip2", "milc", "wrf"}},
      {"MX4", C::kMX, {"gcc", "bwaves", "bzip2", "astar", "bwaves", "gcc", "bzip2", "astar"}},
  };
}

}  // namespace

std::vector<std::unique_ptr<trace::TraceSource>> Workload::make_sources(
    u64 seed, const trace::PatternGeometry& geom) const {
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  sources.reserve(kCoresPerWorkload);
  for (u32 core = 0; core < kCoresPerWorkload; ++core) {
    const auto& profile = trace::benchmark(benchmarks[core]);
    // Fold the core index into the seed so repeated benchmarks diverge.
    sources.push_back(profile.make_source(seed * 1000003 + core + 1, geom));
  }
  return sources;
}

const std::vector<Workload>& table2_workloads() {
  static const std::vector<Workload> workloads = build_table2();
  return workloads;
}

const Workload& workload(const std::string& id) {
  std::string valid;
  for (const auto& w : table2_workloads()) {
    if (w.id == id) return w;
    valid += valid.empty() ? "" : "|";
    valid += w.id;
  }
  throw std::out_of_range("unknown workload \"" + id + "\" (valid: " + valid +
                          ")");
}

}  // namespace camps::workload
