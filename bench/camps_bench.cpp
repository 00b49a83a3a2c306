// camps_bench — reproduces the paper's tables and figures, plus ablations
// and extensions, from a registry of named presets.
//
// Usage: camps_bench <preset>... [flags]; `all` names every preset, and
// --help lists the flags and presets.
//
// A preset is one record in make_presets(): the runs it needs (Plan) and a
// table function over their results. Most records take one of three
// shapes:
//   mix_table   Table II mixes x a scheme set, with class/AVG rows
//   knob_sweep  one BASE baseline per mix, then one row per knob value
//   grid        one or more runs per row
// and the irregular ones keep a small table function of their own.
//
// Presets named together share one exp::Runner, so a (workload, scheme) run
// that several of them need is simulated once (fig5-9 all read the same
// paper-scheme runs). Each preset still prints and exports only its own
// runs, so its table and --stats-json do not depend on its neighbours.
// With several presets, each output FILE gets the preset name spliced in
// before its extension: --csv=out.csv writes out.fig5_speedup.csv, ...

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "exp/runner.hpp"
#include "exp/table.hpp"
#include "obs/chrome_trace.hpp"

namespace camps::bench {
namespace {

/// The runs a preset needs. `jobs` go through the shared Runner cache, so
/// presets named together simulate each (workload, scheme) once; they
/// export as "W/SCHEME" in cache order. `sims` are config-keyed runs (knob
/// sweeps, fault campaigns), exported as "W/SCHEME@i" in input order.
struct Plan {
  std::vector<exp::Runner::Job> jobs;
  std::vector<exp::Runner::Sim> sims;
};

/// What a table function reads: the runner, with every job of its plan
/// cached, and the results of its plan's sims in input order.
struct Context {
  const exp::ExperimentConfig& cfg;
  exp::Runner& runner;
  const std::vector<system::RunResults>& sims;
};

struct Output {
  exp::Table table;
  std::string footer;  ///< Printed after the table; may be empty.
};

struct Preset {
  std::string name;      ///< CLI name and the --stats-json "bench" field.
  std::string title;     ///< Banner: "=== title ===".
  std::string headline;  ///< Paper claim; empty = title-only banner.
  std::function<Plan(const exp::ExperimentConfig&)> plan = {};
  std::function<Output(const Context&)> table = {};
};

using enum prefetch::SchemeKind;
using exp::Table;
using prefetch::SchemeKind;
using system::RunResults;
using system::SystemConfig;
using Cells = std::vector<std::string>;
using Runs = std::vector<const RunResults*>;

std::string f3(double v) { return Table::fmt(v); }
std::string f2(double v) { return Table::fmt(v, 2); }
std::string f1(double v) { return Table::fmt(v, 1); }
std::string pct(double v) { return Table::pct(v); }

[[gnu::format(printf, 1, 2)]] std::string text(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// How a column summarizes: "-", geometric mean (class and AVG rows), or
/// arithmetic mean (AVG row).
enum class Agg { kNone, kGeomean, kMean };

struct Col {
  std::string header;
  std::function<double(exp::Runner&, const std::string& workload)> value;
  std::string (*fmt)(double);
  Agg agg;
};

Col speedup(SchemeKind s) {
  return {prefetch::to_string(s),
          [s](exp::Runner& r, const std::string& w) {
            return r.speedup(w, s, kBase);
          },
          f3, Agg::kGeomean};
}

/// How a field column reads `metric`: as is, over BASE's on the same mix,
/// or as the reduction 1 - that ratio.
enum class Rel { kAbs, kRatio, kReduction };

Col field(std::string header, SchemeKind s, double RunResults::*metric,
          std::string (*fmt)(double), Agg agg = Agg::kMean,
          Rel rel = Rel::kAbs) {
  return {std::move(header),
          [=](exp::Runner& r, const std::string& w) {
            const double v = r.result(w, s).*metric;
            if (rel == Rel::kAbs) return v;
            const double ratio = v / r.result(w, kBase).*metric;
            return rel == Rel::kRatio ? ratio : 1.0 - ratio;
          },
          fmt, agg};
}

/// Gets each column's sum over the twelve mixes.
using Footer =
    std::function<std::string(exp::Runner&, const std::vector<double>&)>;

/// Every Table II mix under each of `schemes`.
Plan mix_runs(const std::vector<SchemeKind>& schemes) {
  Plan plan;
  for (const auto& w : exp::Runner::all_workloads()) {
    for (auto s : schemes) plan.jobs.push_back({w, s, false});
  }
  return plan;
}

/// One row per Table II mix over the runs of `schemes`, then optional
/// per-class geometric-mean rows and an AVG row.
Preset mix_table(Preset p, std::vector<SchemeKind> schemes,
                 std::vector<Col> cols, bool class_rows, bool avg_row,
                 Footer footer = {}) {
  p.plan = [schemes](const exp::ExperimentConfig&) {
    return mix_runs(schemes);
  };
  p.table = [cols, class_rows, avg_row, footer](const Context& ctx) {
    Cells headers{"workload"};
    for (const auto& c : cols) headers.push_back(c.header);
    Table t(headers);
    const auto& mixes = workload::table2_workloads();
    std::vector<std::vector<double>> values(cols.size());
    std::vector<double> sums(cols.size(), 0.0);
    for (const auto& mix : mixes) {
      Cells row{mix.id};
      for (size_t i = 0; i < cols.size(); ++i) {
        values[i].push_back(cols[i].value(ctx.runner, mix.id));
        sums[i] += values[i].back();
        row.push_back(cols[i].fmt(values[i].back()));
      }
      t.add_row(std::move(row));
    }
    // A summary row aggregates each column over the mixes `in` selects:
    // the paper's class and overall geometric means, or plain averages.
    auto summary = [&](const std::string& label, auto in) {
      Cells row{label};
      for (size_t i = 0; i < cols.size(); ++i) {
        std::vector<double> v;
        double sum = 0.0;
        for (size_t m = 0; m < mixes.size(); ++m) {
          if (!in(mixes[m])) continue;
          v.push_back(values[i][m]);
          sum += values[i][m];
        }
        row.push_back(cols[i].agg == Agg::kNone ? "-"
                      : cols[i].agg == Agg::kGeomean
                          ? cols[i].fmt(system::geometric_mean(v))
                          : cols[i].fmt(sum / static_cast<double>(v.size())));
      }
      t.add_row(std::move(row));
    };
    for (auto cls : {workload::WorkloadClass::kHM, workload::WorkloadClass::kLM,
                     workload::WorkloadClass::kMX}) {
      if (!class_rows) break;
      summary(std::string(workload::to_string(cls)) + "-avg",
              [cls](const auto& mix) { return mix.cls == cls; });
    }
    if (avg_row) summary("AVG", [](const auto&) { return true; });
    return Output{t, footer ? footer(ctx.runner, sums) : ""};
  };
  return p;
}

/// One BASE baseline per mix, then for every knob value each
/// (mix, scheme) point with `set` applied. A row is the value, each
/// point's speedup over its mix's baseline, then `extra` of the row's runs.
Preset knob_sweep(Preset p, Cells headers, Cells mixes,
                  std::vector<SchemeKind> schemes, std::vector<u32> values,
                  void (*set)(SystemConfig&, u32),
                  Cells (*extra)(const Runs&)) {
  p.plan = [=](const exp::ExperimentConfig& cfg) {
    Plan plan;
    for (const auto& m : mixes) {
      plan.sims.push_back({cfg.system_config(kBase), m});
    }
    for (u32 v : values) {
      for (const auto& m : mixes) {
        for (auto s : schemes) {
          SystemConfig c = cfg.system_config(s);
          set(c, v);
          plan.sims.push_back({c, m});
        }
      }
    }
    return plan;
  };
  p.table = [=](const Context& ctx) {
    Table t(headers);
    size_t next = mixes.size();
    for (u32 v : values) {
      Cells row{std::to_string(v)};
      Runs runs;
      for (size_t m = 0; m < mixes.size(); ++m) {
        for (size_t s = 0; s < schemes.size(); ++s) {
          runs.push_back(&ctx.sims[next++]);
          row.push_back(f3(runs.back()->geomean_ipc / ctx.sims[m].geomean_ipc));
        }
      }
      for (auto& cell : extra(runs)) row.push_back(std::move(cell));
      t.add_row(std::move(row));
    }
    return Output{t, ""};
  };
  return p;
}

/// One grid row: its leading label cells and the runs it reads.
struct Row {
  Cells labels;
  std::vector<exp::Runner::Sim> sims;
};

/// One row per `rows` entry: its labels, then `metrics` of its runs.
Preset grid(Preset p, Cells headers,
            std::vector<Row> (*rows)(const exp::ExperimentConfig&),
            Cells (*metrics)(const Runs&), std::string footer = "") {
  p.plan = [rows](const exp::ExperimentConfig& cfg) {
    Plan plan;
    for (auto& row : rows(cfg)) {
      for (auto& sim : row.sims) plan.sims.push_back(std::move(sim));
    }
    return plan;
  };
  p.table = [headers, rows, metrics, footer](const Context& ctx) {
    Table t(headers);
    size_t next = 0;
    for (const auto& row : rows(ctx.cfg)) {
      Runs runs;
      for (size_t i = 0; i < row.sims.size(); ++i) {
        runs.push_back(&ctx.sims[next++]);
      }
      Cells cells = row.labels;
      for (auto& cell : metrics(runs)) cells.push_back(std::move(cell));
      t.add_row(std::move(cells));
    }
    return Output{t, footer};
  };
  return p;
}

// Table I: the experimental configuration, printed from the live defaults
// so the docs can never drift from the code.
Output table1_config(const Context&) {
  const SystemConfig cfg = system::table1_config();
  const auto& geo = cfg.hmc.geometry;
  const auto& vault = cfg.hmc.vault;
  auto n = [](u64 v) { return std::to_string(v); };
  Table table({"component", "configuration"});
  table.add_row({"Processor", n(cfg.cores) + " cores @ 3GHz, issue width = " +
                                  n(cfg.core.issue_width) + ", max " +
                                  n(cfg.core.max_outstanding_loads) +
                                  " outstanding loads"});
  for (const auto& [name, c, sharing] :
       {std::tuple{"L1 (D)", cfg.caches.l1, "pvt."},
        std::tuple{"L2", cfg.caches.l2, "pvt."},
        std::tuple{"L3", cfg.caches.l3, "shrd."}}) {
    table.add_row({name, n(c.size_bytes / 1024) + " KB " + sharing + ", " +
                             n(c.ways) + "-way, hit lat. = " +
                             n(c.hit_latency) + " cycles, " +
                             n(c.line_bytes) + " B line"});
  }
  table.add_row({"HMC", n(geo.vaults) + " vaults, " + n(geo.banks_per_vault) +
                            " banks/vault, " + n(geo.row_bytes) +
                            " B row buffer, " + n(geo.rows_per_bank) +
                            " rows/bank (" + n(geo.capacity_bytes() >> 30) +
                            " GB)"});
  table.add_row({"Vault controller",
                 "DDR3-1600, queue size (R/W) = " + n(vault.read_queue) + "/" +
                     n(vault.write_queue) + ", tRCD=" + n(vault.timing.tRCD) +
                     " tRP=" + n(vault.timing.tRP) + " tCL=" +
                     n(vault.timing.tCL) + " cycles"});
  table.add_row({"Serial links", n(cfg.hmc.num_links) + " links, " +
                                     n(cfg.hmc.link.lanes) +
                                     " lanes each direction, " +
                                     f1(cfg.hmc.link.gbps_per_lane) +
                                     " Gbps/lane"});
  table.add_row({"PF buffer",
                 n(vault.buffer.entries * geo.row_bytes / 1024) +
                     " KB/vault, fully associative, " +
                     n(vault.buffer.entries) + " x 1 KB rows, hit latency = " +
                     n(vault.buffer.hit_latency) + " cycles"});
  const hmc::AddressMap map(geo, cfg.hmc.field_order);
  table.add_row({"Address mapping", map.order_name() +
                                    " (row-rank-bank-vault-column)"});
  table.add_row({"Memory scheduling", "FR-FCFS"});
  table.add_row({"Page policy", "Open page"});
  return {table, ""};
}

// Table II: the twelve eight-core SPEC CPU2006 workload mixes, printed from
// the live registry, plus the measured per-workload MPKI classification so
// the synthetic substitution can be audited against the paper's HM/LM
// definition (HM: MPKI >= 20; LM: 1 <= MPKI < 20).
Output table2_workloads(const Context& ctx) {
  Table table({"ID", "class", "benchmarks", "measured MPKI"});
  for (const auto& w : workload::table2_workloads()) {
    std::string names;
    for (u32 c = 0; c < workload::kCoresPerWorkload; ++c) {
      if (c) names += ", ";
      names += w.benchmarks[c];
    }
    table.add_row({w.id, workload::to_string(w.cls), names,
                   f1(ctx.runner.result(w.id, kNone).mpki)});
  }
  return {table, ""};
}

// Extension experiment (not in the paper): multiprogramming fairness.
// The paper reports geomean IPC (Fig. 5); the multiprogramming literature
// also asks whether a scheme's gains come at some co-runner's expense.
// Weighted speedup (throughput in jobs' worth of progress) and harmonic
// speedup (throughput-fairness balance) both use per-benchmark solo runs
// as the denominator.
const std::vector<std::string> kFairMixes = {"HM2", "HM3", "LM2", "MX1",
                                             "MX2"};
const std::vector<SchemeKind> kFairSchemes = {kBase, kMmd, kCampsMod};

Plan ext_fairness_plan(const exp::ExperimentConfig&) {
  // The mix runs plus every distinct (benchmark, scheme) solo run the
  // fairness denominators need.
  Plan p;
  for (const auto& w : kFairMixes) {
    for (auto s : kFairSchemes) {
      p.jobs.push_back({w, s, false});
      for (u32 c = 0; c < workload::kCoresPerWorkload; ++c) {
        p.jobs.push_back({workload::workload(w).benchmarks[c], s, true});
      }
    }
  }
  return p;
}

Output ext_fairness(const Context& ctx) {
  exp::Runner& r = ctx.runner;
  Table table({"workload", "WS BASE", "WS MMD", "WS CAMPS-MOD", "HS BASE",
               "HS MMD", "HS CAMPS-MOD"});
  for (const auto& w : kFairMixes) {
    Cells row{w};
    for (auto s : kFairSchemes) row.push_back(f2(r.weighted_speedup(w, s)));
    for (auto s : kFairSchemes) row.push_back(f2(r.harmonic_speedup(w, s)));
    table.add_row(std::move(row));
  }
  return {table,
          text("\nWS: weighted speedup, max %u (every job at solo speed).\n"
               "HS: harmonic speedup, penalizes unfairness.\n",
               workload::kCoresPerWorkload)};
}

std::vector<Preset> make_presets() {
  const auto paper = prefetch::paper_schemes();
  const auto conflicts = &RunResults::row_conflict_rate;
  const auto accuracy = &RunResults::prefetch_accuracy;
  const auto amat = &RunResults::amat_cycles;
  const auto energy = &RunResults::energy_pj;
  using enum Rel;
  return {
      {"table1_config", "Table I: Experimental Configuration", "",
       [](const exp::ExperimentConfig&) { return Plan{}; }, table1_config},
      {"table2_workloads", "Table II: SPEC CPU2006 benchmark sets",
       "12 workloads: HM1-4 (MPKI>=20), LM1-4 (1<=MPKI<20), MX1-4 (four HM "
       "+ four LM)",
       [](const exp::ExperimentConfig&) { return mix_runs({kNone}); },
       table2_workloads},

      // Figure 5: normalized performance (geomean IPC, BASE = 1) of BASE,
      // BASE-HIT, MMD, CAMPS, CAMPS-MOD over the twelve Table II workloads.
      // Paper headline: CAMPS-MOD +17.9% vs BASE, +16.8% vs BASE-HIT, +8.7%
      // vs MMD on average; per class +24.9% (HM), +9.4% (LM), +19.6% (MX).
      mix_table(
          {"fig5_speedup", "Figure 5: normalized speedup over BASE",
           "CAMPS-MOD avg +17.9% vs BASE, +16.8% vs BASE-HIT, +8.7% vs MMD"},
          paper,
          {speedup(kBase), speedup(kBaseHit), speedup(kMmd), speedup(kCamps),
           speedup(kCampsMod)},
          true, true,
          [](exp::Runner& r, const std::vector<double>&) {
            const auto all = exp::Runner::all_workloads();
            const double avg = r.mean_speedup(all, kCampsMod, kBase);
            const double vs_mmd = avg / r.mean_speedup(all, kMmd, kBase);
            return text("\nmeasured: CAMPS-MOD %+.1f%% vs BASE (paper "
                        "+17.9%%), %+.1f%% vs MMD (paper +8.7%%)\n",
                        (avg - 1.0) * 100.0, (vs_mmd - 1.0) * 100.0);
          }),

      // Figure 6: row-buffer conflict rate per scheme (lower is better).
      // BASE is excluded, as in the paper: it precharges after every copy,
      // so it has no conflicts by construction (printed as a sanity row).
      // Paper headline: CAMPS-MOD reduces conflicts by 16.3% vs BASE-HIT and
      // 13.6% vs MMD on average.
      mix_table(
          {"fig6_conflicts", "Figure 6: row-buffer conflict rate",
           "CAMPS-MOD conflicts -16.3% vs BASE-HIT, -13.6% vs MMD"},
          {kBaseHit, kMmd, kCamps, kCampsMod, kBase},
          {field("BASE-HIT", kBaseHit, conflicts, pct),
           field("MMD", kMmd, conflicts, pct),
           field("CAMPS", kCamps, conflicts, pct),
           field("CAMPS-MOD", kCampsMod, conflicts, pct),
           field("BASE (sanity)", kBase, conflicts, pct, Agg::kNone)},
          false, true,
          [](exp::Runner&, const std::vector<double>& sums) {
            return text("\nmeasured: CAMPS-MOD conflict rate %+.1f%% vs "
                        "BASE-HIT (paper -16.3%%), %+.1f%% vs MMD (paper "
                        "-13.6%%)\n",
                        (sums[3] / sums[0] - 1.0) * 100.0,
                        (sums[3] / sums[1] - 1.0) * 100.0);
          }),

      // Figure 7: prefetching accuracy — of all rows prefetched into the
      // buffer, the fraction whose data was actually demanded afterwards.
      // Paper headline: CAMPS-MOD 70.5% on average, beating BASE by 33.3,
      // BASE-HIT by 28.4 and MMD by 4.1 percentage points; plain CAMPS sits
      // slightly (~1.5pp) below MMD.
      mix_table(
          {"fig7_accuracy", "Figure 7: prefetching accuracy",
           "CAMPS-MOD 70.5% avg; +33.3pp vs BASE, +4.1pp vs MMD"},
          paper,
          {field("BASE", kBase, accuracy, pct),
           field("BASE-HIT", kBaseHit, accuracy, pct),
           field("MMD", kMmd, accuracy, pct),
           field("CAMPS", kCamps, accuracy, pct),
           field("CAMPS-MOD", kCampsMod, accuracy, pct)},
          false, true,
          [](exp::Runner&, const std::vector<double>& sums) {
            return text("\nmeasured averages: BASE %.1f%%, BASE-HIT %.1f%%, "
                        "MMD %.1f%%, CAMPS %.1f%%, CAMPS-MOD %.1f%%\n",
                        sums[0] / 12.0 * 100, sums[1] / 12.0 * 100,
                        sums[2] / 12.0 * 100, sums[3] / 12.0 * 100,
                        sums[4] / 12.0 * 100);
          }),

      // Figure 8: reduction in average memory access time (AMAT) relative
      // to BASE, for MMD and CAMPS-MOD (higher reduction is better).
      // Paper headline: CAMPS-MOD reduces AMAT by 26% vs BASE and is 16.3%
      // ahead of MMD on this metric.
      mix_table(
          {"fig8_amat", "Figure 8: AMAT reduction vs BASE",
           "CAMPS-MOD -26% AMAT vs BASE; 16.3% better than MMD"},
          {kBase, kMmd, kCampsMod},
          {field("BASE AMAT (cyc)", kBase, amat, f1, Agg::kNone),
           field("MMD reduction", kMmd, amat, pct, Agg::kMean, kReduction),
           field("CAMPS-MOD reduction", kCampsMod, amat, pct, Agg::kMean,
                 kReduction)},
          false, true,
          [](exp::Runner&, const std::vector<double>& sums) {
            return text("\nmeasured: CAMPS-MOD AMAT reduction %.1f%% (paper "
                        "26%%), MMD %.1f%%\n",
                        sums[2] / 12.0 * 100.0, sums[1] / 12.0 * 100.0);
          }),

      // Figure 9: average HMC energy consumption normalized to BASE (lower
      // is better), for BASE, MMD, and CAMPS-MOD. Energy is compared per
      // unit of work: the runs execute the same instruction budget, so
      // total measured-window energy is comparable.
      // Paper headline: MMD consumes 6.0% and CAMPS-MOD 8.5% less energy
      // than BASE, mainly from fewer activate/precharge operations and fewer
      // wasted whole-row moves.
      mix_table(
          {"fig9_energy", "Figure 9: HMC energy normalized to BASE",
           "MMD -6.0%, CAMPS-MOD -8.5% vs BASE"},
          {kBase, kMmd, kCampsMod},
          {{"BASE", [](exp::Runner&, const std::string&) { return 1.0; }, f3,
            Agg::kMean},
           field("MMD", kMmd, energy, f3, Agg::kMean, kRatio),
           field("CAMPS-MOD", kCampsMod, energy, f3, Agg::kMean, kRatio)},
          false, true,
          [](exp::Runner&, const std::vector<double>& sums) {
            return text("\nmeasured: MMD %.1f%% (paper -6.0%%), CAMPS-MOD "
                        "%.1f%% (paper -8.5%%) vs BASE\n",
                        (sums[1] / 12.0 - 1.0) * 100.0,
                        (sums[2] / 12.0 - 1.0) * 100.0);
          }),

      // Ablation: the RUT utilization threshold (paper fixes it to 4).
      // Sweeps 1..16 for CAMPS-MOD on one workload per class and reports
      // speedup vs BASE plus prefetch volume/accuracy, exposing the
      // coverage/pollution trade-off behind the paper's choice.
      knob_sweep(
          {"ablate_threshold", "Ablation: RUT utilization threshold",
           "paper fixes threshold = 4 (Section 3.1)"},
          {"threshold", "HM2 speedup", "LM2 speedup", "MX2 speedup",
           "prefetches (HM2)", "accuracy (HM2)"},
          {"HM2", "LM2", "MX2"}, {kCampsMod}, {1, 2, 3, 4, 6, 8, 12, 16},
          [](SystemConfig& c, u32 v) {
            c.scheme_params.camps.utilization_threshold = v;
          },
          [](const Runs& r) {
            return Cells{std::to_string(r[0]->prefetches),
                         pct(r[0]->prefetch_accuracy)};
          }),

      // Ablation: prefetch buffer capacity (paper fixes 16 KB = 16
      // rows/vault). Sweeps 4..64 entries for CAMPS and CAMPS-MOD; the gap
      // between the two replacement policies narrows as capacity pressure
      // disappears.
      knob_sweep(
          {"ablate_buffer_size", "Ablation: prefetch buffer entries per vault",
           "paper fixes 16 x 1 KB (Table I)"},
          {"entries", "CAMPS speedup", "CAMPS-MOD speedup",
           "CAMPS-MOD buffer hits", "CAMPS-MOD accuracy"},
          {"MX2"}, {kCamps, kCampsMod}, {4, 8, 16, 32, 64},
          [](SystemConfig& c, u32 v) { c.hmc.vault.buffer.entries = v; },
          [](const Runs& r) {
            return Cells{std::to_string(r[1]->buffer_hits),
                         pct(r[1]->prefetch_accuracy)};
          }),

      // Ablation: Conflict Table capacity (paper fixes 32 entries per
      // vault). Sweeps 4..128 entries for CAMPS-MOD: too small misses
      // conflict-causers whose re-activation distance exceeds the table's
      // reach; beyond the working set of conflicting rows the benefit
      // saturates.
      knob_sweep(
          {"ablate_ct_size", "Ablation: Conflict Table entries per vault",
           "paper fixes 32 entries (Section 3.1)"},
          {"CT entries", "HM3 speedup", "MX1 speedup", "conflict rate (HM3)"},
          {"HM3", "MX1"}, {kCampsMod}, {4, 8, 16, 32, 64, 128},
          [](SystemConfig& c, u32 v) {
            c.scheme_params.camps.conflict_entries = v;
          },
          [](const Runs& r) { return Cells{pct(r[0]->row_conflict_rate)}; }),

      // Ablation: physical address mapping. Table I fixes RoRaBaVaCo; this
      // sweep shows why: the fine vault-interleaved map destroys row
      // locality (the row-granularity prefetcher has nothing to harvest),
      // while putting bank bits lowest concentrates streams in one bank.
      grid(
          {"ablate_addrmap", "Ablation: address mapping",
           "paper fixes RoRaBaVaCo (Table I)"},
          {"mapping", "NONE IPC", "CAMPS-MOD IPC", "speedup", "conflict rate",
           "pf accuracy"},
          [](const exp::ExperimentConfig& cfg) {
            std::vector<Row> rows;
            for (const auto& [name, order] :
                 {std::pair{"RoRaBaVaCo (paper)", hmc::kRoRaBaVaCo},
                  std::pair{"RoBaRaCoVa (line-interleave)", hmc::kRoBaRaCoVa},
                  std::pair{"RoVaRaCoBa (bank-lowest)", hmc::kRoVaRaCoBa}}) {
              Row row{{name}, {}};
              for (auto s : {kNone, kCampsMod}) {
                SystemConfig c = cfg.system_config(s);
                c.hmc.field_order = order;
                row.sims.push_back({c, "MX2"});
              }
              rows.push_back(std::move(row));
            }
            return rows;
          },
          [](const Runs& r) {
            return Cells{f3(r[0]->geomean_ipc), f3(r[1]->geomean_ipc),
                         f3(r[1]->geomean_ipc / r[0]->geomean_ipc),
                         pct(r[1]->row_conflict_rate),
                         pct(r[1]->prefetch_accuracy)};
          }),

      // Ablation: row-buffer page policy (Table I fixes open page). Closed
      // page removes row-buffer conflicts at the price of losing row hits;
      // CAMPS's selective fetch+precharge is effectively a *learned* middle
      // ground, which this sweep makes visible.
      grid(
          {"ablate_page_policy", "Ablation: page policy",
           "paper fixes open page (Table I)"},
          {"workload", "scheme", "policy", "IPC", "row hits", "conflicts",
           "conflict rate"},
          [](const exp::ExperimentConfig& cfg) {
            std::vector<Row> rows;
            for (const char* w : {"HM3", "MX2"}) {
              for (auto s : {kNone, kCampsMod}) {
                for (auto [policy, name] :
                     {std::pair{hmc::PagePolicy::kOpen, "open"},
                      std::pair{hmc::PagePolicy::kClosed, "closed"}}) {
                  SystemConfig c = cfg.system_config(s);
                  c.hmc.vault.page_policy = policy;
                  rows.push_back({{w, prefetch::to_string(s), name}, {{c, w}}});
                }
              }
            }
            return rows;
          },
          [](const Runs& r) {
            return Cells{f3(r[0]->geomean_ipc), std::to_string(r[0]->row_hits),
                         std::to_string(r[0]->row_conflicts),
                         pct(r[0]->row_conflict_rate)};
          }),

      // Ablation: BASE-HIT's queued-hit trigger (the paper uses 2). Higher
      // triggers fetch less speculatively — fewer rows moved, higher
      // accuracy, lower coverage.
      knob_sweep(
          {"ablate_basehit_trigger", "Ablation: BASE-HIT queued-hit trigger",
           "paper uses >= 2 read-queue hits (Section 5)"},
          {"min hits", "speedup vs BASE", "prefetches", "accuracy",
           "buffer hits"},
          {"HM2"}, {kBaseHit}, {2, 3, 4, 6, 8},
          [](SystemConfig& c, u32 v) { c.scheme_params.base_hit_min_hits = v; },
          [](const Runs& r) {
            return Cells{std::to_string(r[0]->prefetches),
                         pct(r[0]->prefetch_accuracy),
                         std::to_string(r[0]->buffer_hits)};
          }),

      // Extension experiment (not in the paper): STREAM — a vault-side
      // adaptation of adaptive stream detection (Hur & Lin, MICRO 2006, the
      // paper's related work) — against CAMPS-MOD across the three workload
      // classes. Stream detection tracks CAMPS on streaming-heavy mixes but
      // cannot touch conflict-dominated traffic, which is precisely the
      // behaviour gap the paper's Conflict Table closes.
      mix_table(
          {"ext_stream", "Extension: STREAM vs CAMPS-MOD",
           "extension — quantifies the conflict-awareness gap"},
          {kStream, kCamps, kCampsMod, kBase},
          {speedup(kStream), speedup(kCamps), speedup(kCampsMod),
           field("STREAM accuracy", kStream, accuracy, pct, Agg::kNone),
           field("CAMPS-MOD accuracy", kCampsMod, accuracy, pct, Agg::kNone)},
          true, false),

      {"ext_fairness", "Extension: weighted / harmonic speedup",
       "extension — fairness view of Fig. 5's gains", ext_fairness_plan,
       ext_fairness},

      // Extension experiment (not in the paper): how CAMPS's benefit scales
      // with the cube generation (vault-level parallelism and link speed),
      // and what link power management (the paper's reference [13]) costs
      // under each scheme.
      grid(
          {"ext_generations",
           "Extension: HMC generation + link power management",
           "extension — gen1 (16 vaults) vs gen2 (32 vaults), link PM on/off"},
          {"variant", "scheme", "IPC", "mem lat (cyc)", "link util up",
           "wakeups"},
          [](const exp::ExperimentConfig& cfg) {
            std::vector<Row> rows;
            for (const char* w : {"HM2", "LM2"}) {
              for (const auto& [name, gen1, link_pm] :
                   {std::tuple{"gen2 (Table I)", false, false},
                    std::tuple{"gen2 + link PM", false, true},
                    std::tuple{"gen1", true, false},
                    std::tuple{"gen1 + link PM", true, true}}) {
                for (auto s : {kNone, kCampsMod}) {
                  SystemConfig c = gen1 ? system::hmc_gen1_config(s)
                                        : system::table1_config(s);
                  c.core.warmup_instructions = cfg.warmup_instructions;
                  c.core.measure_instructions = cfg.measure_instructions;
                  c.seed = cfg.seed;
                  c.hmc.link.power_management = link_pm;
                  rows.push_back({{std::string(name) + " / " + w,
                                   prefetch::to_string(s)},
                                  {{c, w}}});
                }
              }
            }
            return rows;
          },
          [](const Runs& r) {
            return Cells{f3(r[0]->geomean_ipc), f1(r[0]->mem_latency_cycles),
                         pct(r[0]->link_up_utilization),
                         std::to_string(r[0]->link_wakeups)};
          }),

      // Extension experiment (not in the paper): fault-injection campaign.
      // Re-runs the Table II workloads under CAMPS-MOD with a seeded
      // CRC-error rate of 1e-4 per link transfer (plus a sprinkling of vault
      // stalls) and reports what the recovery machinery cost: IPC delta
      // against the fault-free run, faults injected vs recovered, and the
      // recovery-latency tail. The campaign is deterministic — fault
      // decisions are pure hashes of (seed, site, unit, sequence) — so the
      // table and --stats-json output are byte-identical across --jobs.
      grid(
          {"ext_faults", "Extension: fault-injection campaign",
           "extension — CAMPS-MOD under a CRC-1e-4 fault storm"},
          {"workload", "IPC clean", "IPC fault", "dIPC %", "injected",
           "replays", "retries", "poisoned", "flushes", "rec p95 cyc"},
          [](const exp::ExperimentConfig& cfg) {
            std::vector<Row> rows;
            for (const auto& w : exp::Runner::all_workloads()) {
              SystemConfig clean = cfg.system_config(kCampsMod);
              SystemConfig faulty = clean;
              faulty.hmc.fault.link_crc_rate = 1e-4;
              faulty.hmc.fault.vault_stall_rate = 1e-5;
              faulty.hmc.fault.vault_degrade_threshold = 16;
              faulty.hmc.fault.seed = cfg.seed;
              rows.push_back({{w}, {{clean, w}, {faulty, w}}});
            }
            return rows;
          },
          [](const Runs& r) {
            const auto& f = r[1]->faults;
            const double ipc = r[0]->geomean_ipc;
            const double dipc =
                ipc > 0.0 ? (r[1]->geomean_ipc / ipc - 1.0) * 100.0 : 0.0;
            return Cells{f3(ipc), f3(r[1]->geomean_ipc), f2(dipc),
                         std::to_string(f.injected()),
                         std::to_string(f.replays),
                         std::to_string(f.host_retries),
                         std::to_string(f.host_poisoned),
                         std::to_string(f.degrade_flushes),
                         Table::fmt(f.recovery.p95, 0)};
          },
          "\nEvery injected fault must reappear as a replay, retry, or "
          "poisoned\ncompletion; run with --audit to additionally check the "
          "recovery\ninvariants (token conservation, RUT/CT hand-off) during "
          "the sweep.\n"),
  };
}

const std::vector<Preset>& presets() {
  static const std::vector<Preset> all = make_presets();
  return all;
}

struct Options {
  exp::ExperimentConfig cfg;
  std::vector<const Preset*> presets;
  std::string csv, stats_json, trace_out;
  u32 trace_cap = obs::kDefaultTraceCapacity;
};

void print_usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <preset>... [flags]\n%s", argv0, R"(
  --quick            1/5th instruction budget (smoke run)
  --measure=N        measured instructions per core
  --warmup=N         warmup instructions per core
  --seed=N           workload generation seed
  --audit            audit model invariants every 100000 events
  --jobs=N           worker threads (default: all hardware threads)
  --quiet            suppress per-run progress on stderr
  --csv=FILE         also write the main table as CSV
  --stats-json=FILE  also write results as JSON (deterministic across --jobs)
  --trace-out=FILE   write request-lifecycle spans as Chrome trace JSON
  --trace-cap=N      span ring capacity per run, at least 1 (default 16384)
With several presets, each FILE gets ".<preset>" before its extension.

presets (`all` runs every one):
)");
  for (const auto& p : presets()) {
    std::fprintf(stderr, "  %-24s %s\n", p.name.c_str(), p.title.c_str());
  }
}

Options parse_args(int argc, char** argv) {
  Options opt;
  exp::ExperimentConfig& cfg = opt.cfg;
  cfg.warmup_instructions = 50'000;
  cfg.measure_instructions = 250'000;
  cfg.verbose = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--quick") {
      cfg.warmup_instructions /= 5;
      cfg.measure_instructions /= 5;
    } else if (cli::flag_value(arg, "--measure", &v)) {
      cfg.measure_instructions = cli::parse_u64("--measure", v);
    } else if (cli::flag_value(arg, "--warmup", &v)) {
      cfg.warmup_instructions = cli::parse_u64("--warmup", v);
    } else if (cli::flag_value(arg, "--seed", &v)) {
      cfg.seed = cli::parse_u64("--seed", v);
    } else if (arg == "--audit") {
      cfg.audit_every = 100'000;
    } else if (cli::flag_value(arg, "--jobs", &v)) {
      cfg.jobs = static_cast<u32>(cli::parse_u64("--jobs", v, ~u32{0}));
    } else if (arg == "--quiet") {
      cfg.verbose = false;
    } else if (cli::flag_value(arg, "--csv", &v)) {
      opt.csv = v;
    } else if (cli::flag_value(arg, "--stats-json", &v)) {
      opt.stats_json = v;
    } else if (cli::flag_value(arg, "--trace-out", &v)) {
      opt.trace_out = v;
    } else if (cli::flag_value(arg, "--trace-cap", &v)) {
      opt.trace_cap =
          static_cast<u32>(cli::parse_u64("--trace-cap", v, ~u32{0}));
      if (opt.trace_cap == 0) {
        throw cli::UsageError("--trace-cap expects at least 1 span, got \"" +
                              v + "\"");
      }
    } else if (arg == "--help") {
      print_usage(argv[0]);
      std::exit(0);
    } else if (arg == "all") {
      for (const auto& p : presets()) opt.presets.push_back(&p);
    } else if (arg.rfind("--", 0) != 0) {
      const auto it = std::find_if(
          presets().begin(), presets().end(),
          [&](const Preset& p) { return p.name == arg; });
      if (it == presets().end()) {
        throw cli::UsageError("unknown preset: " + arg);
      }
      opt.presets.push_back(&*it);
    } else {
      // Unknown flags are fatal: `--measure 1000` (missing '=') must not
      // silently run the default budget and waste a full sweep.
      std::string msg = "unknown argument: " + arg;
      for (const char* f : {"--measure", "--warmup", "--seed", "--jobs",
                            "--csv", "--stats-json", "--trace-out",
                            "--trace-cap"}) {
        if (arg == f) msg += std::string(" (did you mean ") + f + "=VALUE?)";
      }
      throw cli::UsageError(msg);
    }
  }
  if (opt.presets.empty()) throw cli::UsageError("no preset named");
  // Tracing is armed by asking for the output file; the recorder itself
  // costs one branch per instrumentation point otherwise.
  if (!opt.trace_out.empty()) cfg.obs.trace_capacity = opt.trace_cap;
  return opt;
}

/// `path` for one preset's export: as given when a single preset runs,
/// otherwise with ".<preset>" spliced in before the extension.
std::string output_path(const std::string& path, const Preset& p,
                        bool several) {
  size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    dot = path.size();
  }
  return several ? path.substr(0, dot) + "." + p.name + path.substr(dot) : path;
}

/// (label, results) pairs in the order the exporters emit them.
using NamedResults =
    std::vector<std::pair<std::string, const system::RunResults*>>;

/// A preset's own runs: its cached jobs as "W/SCHEME" in the cache's map
/// order, then its sims as "W/SCHEME@i" in input order (the index tells
/// apart knob points that reuse one workload and scheme).
NamedResults own_runs(const exp::Runner& runner, const Plan& plan,
                      const std::vector<system::RunResults>& sims) {
  NamedResults out;
  for (const auto& [key, res] : runner.results()) {
    const bool own = std::any_of(
        plan.jobs.begin(), plan.jobs.end(), [&](const exp::Runner::Job& j) {
          return !j.solo && j.workload == key.first && j.scheme == key.second;
        });
    if (own) {
      out.emplace_back(key.first + "/" + prefetch::to_string(key.second), &res);
    }
  }
  for (size_t i = 0; i < sims.size(); ++i) {
    out.emplace_back(plan.sims[i].workload + "/" +
                         prefetch::to_string(plan.sims[i].config.scheme) +
                         "@" + std::to_string(i),
                     &sims[i]);
  }
  return out;
}

/// The bench-level JSON document: {"bench", "config", "table", "runs":
/// [{"name", "results"}...]}. Runs are emitted compactly (one line each)
/// inside a pretty-printed shell. Excludes wall-clock, so the file is
/// byte-identical across --jobs values.
void write_stats_json(const std::string& path, const Preset& p,
                      const exp::ExperimentConfig& cfg,
                      const NamedResults& runs, const exp::Table& table) {
  JsonWriter w(2);
  w.begin_object();
  w.field("bench", p.name);
  w.key("config");
  w.begin_object();
  w.field("warmup_instructions", cfg.warmup_instructions);
  w.field("measure_instructions", cfg.measure_instructions);
  w.field("seed", cfg.seed);
  w.end_object();
  w.key("table");
  w.raw(table.to_json(0));
  w.key("runs");
  w.begin_array();
  for (const auto& [name, res] : runs) {
    w.begin_object();
    w.field("name", name);
    w.key("results");
    w.raw(res->to_json(0));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  write_text_file(path, w.str() + "\n");
  std::fprintf(stderr, "stats json written to %s\n", path.c_str());
}

/// All runs' spans as one Chrome trace (one viewer process per run).
void write_trace(const std::string& path, const NamedResults& runs) {
  std::vector<obs::TraceRun> trace_runs;
  for (const auto& [name, res] : runs) {
    if (res->trace_spans == nullptr) continue;
    trace_runs.push_back(obs::TraceRun{name, res->trace_spans.get()});
  }
  obs::write_chrome_trace(path, trace_runs);
  std::fprintf(stderr, "trace written to %s (%zu runs)\n", path.c_str(),
               trace_runs.size());
}

/// SystemConfig::validate() over every config `p` would run: its cached
/// jobs' Table I configs and its hand-built sims.
std::vector<std::string> config_errors(const exp::ExperimentConfig& cfg,
                                       const Preset& p) {
  const Plan plan = p.plan(cfg);
  std::vector<std::string> errors;
  auto add = [&](const SystemConfig& c) {
    for (auto& e : c.validate()) errors.push_back(std::move(e));
  };
  for (const auto& job : plan.jobs) add(cfg.system_config(job.scheme));
  for (const auto& sim : plan.sims) add(sim.config);
  return errors;
}

void run_preset(const Options& opt, const Preset& p, exp::Runner& runner) {
  const exp::ExperimentConfig& cfg = opt.cfg;
  std::printf("=== %s ===\n", p.title.c_str());
  if (!p.headline.empty()) {
    std::printf(
        "paper: %s\nrun: %llu warmup + %llu measured instructions/core, "
        "seed %llu\n",
        p.headline.c_str(),
        static_cast<unsigned long long>(cfg.warmup_instructions),
        static_cast<unsigned long long>(cfg.measure_instructions),
        static_cast<unsigned long long>(cfg.seed));
  }
  std::printf("\n");

  const Plan plan = p.plan(cfg);
  runner.run_all(plan.jobs);
  const auto sims = runner.run_sims(plan.sims);
  const Output out = p.table(Context{cfg, runner, sims});
  std::printf("%s%s", out.table.to_string().c_str(), out.footer.c_str());

  const bool several = opt.presets.size() > 1;
  if (!opt.csv.empty()) {
    const std::string path = output_path(opt.csv, p, several);
    out.table.write_csv(path);
    std::fprintf(stderr, "csv written to %s\n", path.c_str());
  }
  if (opt.stats_json.empty() && opt.trace_out.empty()) return;
  const NamedResults runs = own_runs(runner, plan, sims);
  if (!opt.stats_json.empty()) {
    write_stats_json(output_path(opt.stats_json, p, several), p, cfg, runs,
                     out.table);
  }
  if (!opt.trace_out.empty()) {
    write_trace(output_path(opt.trace_out, p, several), runs);
  }
}

}  // namespace
}  // namespace camps::bench

int main(int argc, char** argv) {
  using namespace camps::bench;
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const camps::cli::UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    print_usage(argv[0]);
    return 2;
  }
  // Every config a preset would build must pass validation before any
  // simulation starts; a bad one fails like a bad flag, naming its key.
  for (const Preset* p : opt.presets) {
    const std::vector<std::string> errors = config_errors(opt.cfg, *p);
    if (errors.empty()) continue;
    for (const auto& e : errors) {
      std::fprintf(stderr, "%s: %s: %s\n", argv[0], p->name.c_str(),
                   e.c_str());
    }
    return 2;
  }
  try {
    camps::exp::Runner runner(opt.cfg);
    for (size_t i = 0; i < opt.presets.size(); ++i) {
      if (i > 0) std::printf("\n");
      run_preset(opt, *opt.presets[i], runner);
    }
    // Host-side cost goes to stderr, so tables stay byte-identical across
    // --jobs settings.
    std::fflush(stdout);
    const auto& t = runner.timing();
    if (t.runs > 0) {
      std::fprintf(stderr,
                   "timing: %llu runs, %.2fs wall, %.2fs simulation, %llu "
                   "events (%.2f Mevents/s per worker)\n",
                   static_cast<unsigned long long>(t.runs), t.sweep_seconds,
                   t.run_seconds, static_cast<unsigned long long>(t.events),
                   t.events_per_second() / 1e6);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
