// Working with traces: generate a synthetic SPEC-like trace, inspect its
// statistics, persist it to the binary .ctrc format (varint line deltas, a
// few bytes per record), reload it, and run the reloaded trace through the
// full system on all eight cores.
//
// Usage: trace_tools [benchmark] [records] [output.ctrc]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "system/system.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace camps;
  const std::string bench = argc > 1 ? argv[1] : "sphinx";
  const size_t records = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                  : 200000;
  const std::string path =
      argc > 3 ? argv[3] : "/tmp/camps_" + bench + ".ctrc";

  system::SystemConfig cfg = system::table1_config();
  const auto geometry = cfg.pattern_geometry();

  // 1. Generate.
  const auto& profile = trace::benchmark(bench);
  std::printf("benchmark %-8s (%s): %s\n", profile.name.c_str(),
              trace::to_string(profile.mem_class), profile.character.c_str());
  auto source = profile.make_source(/*seed=*/42, geometry);
  const auto trace_records = trace::collect(*source, records);

  // 2. Inspect.
  const auto stats = trace::summarize(trace_records);
  std::printf("  records          : %llu\n",
              static_cast<unsigned long long>(stats.records));
  std::printf("  instructions     : %llu\n",
              static_cast<unsigned long long>(stats.instructions));
  std::printf("  reads / writes   : %llu / %llu\n",
              static_cast<unsigned long long>(stats.reads),
              static_cast<unsigned long long>(stats.writes));
  std::printf("  distinct lines   : %llu\n",
              static_cast<unsigned long long>(stats.distinct_lines));
  std::printf("  accesses / kinst : %.1f\n", stats.accesses_per_kilo_instr);

  // 3. Persist and reload.
  trace::write_trace_file(path, trace_records);
  const double bytes_per_record =
      static_cast<double>(std::filesystem::file_size(path)) /
      static_cast<double>(std::max<size_t>(trace_records.size(), 1));
  std::printf("  written to       : %s (%.1f bytes/record)\n", path.c_str(),
              bytes_per_record);
  trace::TraceFileSource reloaded(path);
  std::printf("  reloaded records : %llu\n",
              static_cast<unsigned long long>(reloaded.record_count()));

  // 4. Run the file-backed trace on all eight cores of the Table I system.
  cfg.core.warmup_instructions = 20000;
  cfg.core.measure_instructions = 100000;
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  for (u32 c = 0; c < cfg.cores; ++c) {
    sources.push_back(std::make_unique<trace::TraceFileSource>(path));
  }
  system::System sys(cfg, std::move(sources));
  const auto results = sys.run();
  std::printf("\nfull-system run of the reloaded trace (CAMPS-MOD):\n%s",
              results.summary().c_str());
  return 0;
}
