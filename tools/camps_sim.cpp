// camps_sim — command-line front end for the CAMPS simulation stack.
//
// Runs one (workload, scheme) simulation of the Table I system and prints
// the results summary; optionally dumps the full per-vault statistics
// registry. All Table I parameters can be overridden from an INI config
// file (see configs/table1.ini for the recognized keys).
//
// Usage:
//   camps_sim [options]
//     --workload=ID      Table II workload (default MX1)
//     --scheme=NAME      NONE|BASE|BASE-HIT|MMD|CAMPS|CAMPS-MOD
//     --config=FILE      INI file with system overrides
//     --warmup=N         warmup instructions per core
//     --measure=N        measured instructions per core
//     --seed=N           workload seed
//     --audit            audit model invariants every 100000 events
//     --audit-every=N    audit model invariants every N executed events
//     --stats            dump the full statistics registry
//     --energy           dump the energy event breakdown
//     --stats-json=FILE  write results + statistics registry as JSON
//     --trace-out=FILE   write request-lifecycle spans as Chrome trace JSON
//     --trace-cap=N      span ring capacity, at least 1 (default 16384)
//     --epoch-ticks=N    sample device counters every N ticks
//     --epoch-csv=FILE   write the epoch time series as CSV
//     --epoch-json=FILE  write the epoch time series as JSON
//
// Fault injection (docs/fault_injection.md; all off by default):
//     --fault-rate=R             serial-link CRC-failure rate (per packet)
//     --fault-link-drop=R        unrecoverable link-loss rate
//     --fault-xbar-drop=R        crossbar grant-drop rate
//     --fault-vault-stall=R      vault response-stall rate
//     --fault-seed=N             fault-plan seed (default 1)
//     --fault-retry-budget=N     host retries before poisoning (default 3)
//     --fault-degrade-threshold=N  vault faults per degradation flush
//     --fault-tokens=N           link flow-control credits (flits; 0 = off)
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "system/system.hpp"
#include "workload/workloads.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload=ID] [--scheme=NAME] [--config=FILE]\n"
               "          [--warmup=N] [--measure=N] [--seed=N]\n"
               "          [--audit] [--audit-every=N] [--stats] [--energy]\n"
               "          [--stats-json=FILE] [--trace-out=FILE] "
               "[--trace-cap=N]\n"
               "          [--epoch-ticks=N] [--epoch-csv=FILE] "
               "[--epoch-json=FILE]\n"
               "          [--fault-rate=R] [--fault-link-drop=R] "
               "[--fault-xbar-drop=R]\n"
               "          [--fault-vault-stall=R] [--fault-seed=N] "
               "[--fault-retry-budget=N]\n"
               "          [--fault-degrade-threshold=N] [--fault-tokens=N]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace camps;

  std::string workload = "MX1";
  std::string config_path;
  bool dump_stats = false;
  bool dump_energy = false;
  std::string stats_json_path, trace_out_path, epoch_csv_path, epoch_json_path;
  u64 trace_cap = obs::kDefaultTraceCapacity, epoch_ticks = 0;
  system::SystemConfig cfg = system::table1_config();
  cfg.core.warmup_instructions = 100'000;
  cfg.core.measure_instructions = 500'000;

  // Flags override the config file key by key, so the file loads first.
  // One that is unreadable, malformed, names an unknown key or holds a
  // value out of its field's range is a usage error.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (cli::flag_value(arg, "--config", &v)) config_path = v;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
  }
  try {
    if (!config_path.empty()) {
      cfg = system::apply_overrides(cfg, ConfigFile::load(config_path));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  fault::FaultConfig& fault_cfg = cfg.hmc.fault;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      auto num = [&](const char* flag, u64 max = ~u64{0}) {
        return cli::parse_u64(flag, v, max);
      };
      auto count32 = [&](const char* flag) {
        return static_cast<u32>(num(flag, ~u32{0}));
      };
      // Names resolve at their flag, so a typo exits before the run
      // banner; the lookups throw std::out_of_range listing valid names.
      auto lookup = [&](const char* flag, auto find) {
        try {
          return find(v);
        } catch (const std::out_of_range& e) {
          throw cli::UsageError(std::string(flag) + ": " + e.what());
        }
      };
      if (cli::flag_value(arg, "--workload", &v)) {
        workload = lookup("--workload", workload::workload).id;
      } else if (cli::flag_value(arg, "--scheme", &v)) {
        cfg.scheme = lookup("--scheme", prefetch::scheme_from_string);
      } else if (cli::flag_value(arg, "--config", &v)) {
        // Loaded above.
      } else if (cli::flag_value(arg, "--warmup", &v)) {
        cfg.core.warmup_instructions = num("--warmup");
      } else if (cli::flag_value(arg, "--measure", &v)) {
        cfg.core.measure_instructions = num("--measure");
      } else if (cli::flag_value(arg, "--seed", &v)) {
        cfg.seed = num("--seed");
      } else if (arg == "--audit") {
        cfg.audit_every = 100'000;
      } else if (cli::flag_value(arg, "--audit-every", &v)) {
        cfg.audit_every = num("--audit-every");
      } else if (arg == "--stats") {
        dump_stats = true;
      } else if (arg == "--energy") {
        dump_energy = true;
      } else if (cli::flag_value(arg, "--stats-json", &v)) {
        stats_json_path = v;
      } else if (cli::flag_value(arg, "--trace-out", &v)) {
        trace_out_path = v;
      } else if (cli::flag_value(arg, "--trace-cap", &v)) {
        trace_cap = num("--trace-cap", ~u32{0});
        if (trace_cap == 0) {
          throw cli::UsageError("--trace-cap expects at least 1 span, got \"" +
                                v + "\"");
        }
      } else if (cli::flag_value(arg, "--epoch-ticks", &v)) {
        epoch_ticks = num("--epoch-ticks");
      } else if (cli::flag_value(arg, "--epoch-csv", &v)) {
        epoch_csv_path = v;
      } else if (cli::flag_value(arg, "--epoch-json", &v)) {
        epoch_json_path = v;
      } else if (cli::flag_value(arg, "--fault-rate", &v)) {
        fault_cfg.link_crc_rate = cli::parse_double("--fault-rate", v);
      } else if (cli::flag_value(arg, "--fault-link-drop", &v)) {
        fault_cfg.link_drop_rate = cli::parse_double("--fault-link-drop", v);
      } else if (cli::flag_value(arg, "--fault-xbar-drop", &v)) {
        fault_cfg.xbar_drop_rate = cli::parse_double("--fault-xbar-drop", v);
      } else if (cli::flag_value(arg, "--fault-vault-stall", &v)) {
        fault_cfg.vault_stall_rate =
            cli::parse_double("--fault-vault-stall", v);
      } else if (cli::flag_value(arg, "--fault-seed", &v)) {
        fault_cfg.seed = num("--fault-seed");
      } else if (cli::flag_value(arg, "--fault-retry-budget", &v)) {
        fault_cfg.host_retry_budget = count32("--fault-retry-budget");
      } else if (cli::flag_value(arg, "--fault-degrade-threshold", &v)) {
        fault_cfg.vault_degrade_threshold =
            count32("--fault-degrade-threshold");
      } else if (cli::flag_value(arg, "--fault-tokens", &v)) {
        fault_cfg.link_tokens = count32("--fault-tokens");
      } else {
        throw cli::UsageError("unknown argument: " + arg);
      }
    }
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    usage(argv[0]);
    return 2;
  }

  try {
    // Tracing is armed by asking for the output file.
    if (!trace_out_path.empty()) {
      cfg.obs.trace_capacity = static_cast<u32>(trace_cap);
    }
    // An epoch output without an explicit period gets a sensible default
    // (10 us of simulated time).
    if (epoch_ticks == 0 &&
        (!epoch_csv_path.empty() || !epoch_json_path.empty())) {
      epoch_ticks = 10'000 * sim::kTicksPerNs;
    }
    cfg.obs.epoch_ticks = epoch_ticks;

    // Values a component constructor would assert on fail here instead,
    // as a usage error naming the config key.
    std::vector<std::string> errors = cfg.validate();
    if (cfg.cores != workload::kCoresPerWorkload) {
      errors.push_back("cores = " + std::to_string(cfg.cores) +
                       ": workload " + workload + " runs " +
                       std::to_string(workload::kCoresPerWorkload) +
                       " cores");
    }
    if (!errors.empty()) {
      for (const auto& e : errors) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.c_str());
      }
      return 2;
    }

    std::printf("camps_sim: workload %s, scheme %s, %llu+%llu instr/core, "
                "seed %llu\n\n",
                workload.c_str(), prefetch::to_string(cfg.scheme),
                static_cast<unsigned long long>(cfg.core.warmup_instructions),
                static_cast<unsigned long long>(cfg.core.measure_instructions),
                static_cast<unsigned long long>(cfg.seed));

    auto sys = system::make_workload_system(cfg, workload);
    const auto results = sys->run();
    std::printf("%s", results.summary().c_str());

    std::printf("\nper-core IPC:");
    for (size_t c = 0; c < results.cores.size(); ++c) {
      std::printf(" %.3f", results.cores[c].ipc);
    }
    std::printf("\n");

    if (dump_energy) {
      std::printf("\n--- energy breakdown ---\n%s",
                  sys->memory().device().energy().breakdown().c_str());
    }
    if (dump_stats) {
      std::printf("\n--- statistics registry ---\n%s",
                  sys->stats().dump().c_str());
    }
    if (!stats_json_path.empty()) {
      // One document: the run's headline results plus the full registry
      // (per-vault counters, latency histograms). Deterministic: neither
      // part contains wall-clock.
      JsonWriter w(2);
      w.begin_object();
      w.field("workload", workload);
      w.field("scheme", prefetch::to_string(cfg.scheme));
      w.key("results");
      w.raw(results.to_json(0));
      w.key("registry");
      w.raw(sys->stats().dump_json(0));
      w.end_object();
      write_text_file(stats_json_path, w.str() + "\n");
      std::fprintf(stderr, "stats json written to %s\n",
                   stats_json_path.c_str());
    }
    if (!trace_out_path.empty()) {
      const std::string run_name =
          workload + "/" + prefetch::to_string(cfg.scheme);
      obs::write_chrome_trace(
          trace_out_path, {obs::TraceRun{run_name, results.trace_spans.get()}});
      std::fprintf(stderr, "trace written to %s (%zu spans, %llu dropped)\n",
                   trace_out_path.c_str(), results.trace_spans->size(),
                   static_cast<unsigned long long>(results.trace_dropped));
    }
    if (results.epochs != nullptr) {
      if (!epoch_csv_path.empty()) {
        write_text_file(epoch_csv_path,
                        obs::EpochSampler::series_csv(*results.epochs));
        std::fprintf(stderr, "epoch csv written to %s\n",
                     epoch_csv_path.c_str());
      }
      if (!epoch_json_path.empty()) {
        write_text_file(
            epoch_json_path,
            obs::EpochSampler::series_json(*results.epochs,
                                           cfg.obs.epoch_ticks, 2) +
                "\n");
        std::fprintf(stderr, "epoch json written to %s\n",
                     epoch_json_path.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
