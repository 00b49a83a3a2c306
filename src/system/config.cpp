#include "system/config.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hmc/packet.hpp"
#include "sim/event_queue.hpp"

namespace camps::system {

trace::PatternGeometry SystemConfig::pattern_geometry() const {
  const hmc::AddressMap map(hmc.geometry, hmc.field_order);
  trace::PatternGeometry g;
  g.line_bytes = hmc.geometry.line_bytes;
  g.row_bytes = hmc.geometry.row_bytes;
  g.same_bank_row_stride = map.same_bank_row_stride();
  return g;
}

u64 SystemConfig::core_slice_bytes() const {
  return hmc.geometry.capacity_bytes() / cores;
}

std::vector<std::string> SystemConfig::validate() const {
  std::vector<std::string> errors;
  auto check = [&](bool ok, const char* key, auto value,
                   const std::string& rule) {
    if (ok) return;
    std::ostringstream msg;
    msg << key << " = " << value << ": " << rule;
    errors.push_back(msg.str());
  };
  check(cores >= 1, "cores", cores, "must be at least 1");
  check(core.issue_width >= 1, "core.issue_width", core.issue_width,
        "must be at least 1");
  check(core.max_outstanding_loads >= 1, "core.max_outstanding",
        core.max_outstanding_loads, "must be at least 1");
  const hmc::HmcGeometry& g = hmc.geometry;
  check(std::has_single_bit(g.vaults), "hmc.vaults", g.vaults,
        "must be a power of two");
  check(std::has_single_bit(g.banks_per_vault) && g.banks_per_vault <= 32,
        "hmc.banks", g.banks_per_vault,
        "must be a power of two no larger than 32 (the vault scheduler "
        "tracks banks in a 32-bit mask)");
  check(hmc.num_links >= 1, "hmc.links", hmc.num_links, "must be at least 1");
  // Cores, vaults and links tag their events with their index, and an event
  // key holds ids up to sim::kMaxComponentId.
  const std::string id_rule = "must be at most " +
                              std::to_string(sim::kMaxComponentId + 1) +
                              " (event component ids are 16 bits)";
  check(cores <= sim::kMaxComponentId + 1, "cores", cores, id_rule);
  check(g.vaults <= sim::kMaxComponentId + 1, "hmc.vaults", g.vaults, id_rule);
  check(hmc.num_links <= sim::kMaxComponentId + 1, "hmc.links", hmc.num_links,
        id_rule);
  check(std::has_single_bit(g.rows_per_bank), "hmc.rows_per_bank",
        g.rows_per_bank, "must be a power of two");
  check(hmc.vault.buffer.entries >= 1, "buffer.entries",
        hmc.vault.buffer.entries, "must be at least 1");
  check(scheme_params.camps.utilization_threshold >= 1, "camps.threshold",
        scheme_params.camps.utilization_threshold, "must be at least 1");
  check(scheme_params.camps.conflict_entries >= 1, "camps.conflict_entries",
        scheme_params.camps.conflict_entries, "must be at least 1");
  check(scheme_params.mmd.max_degree >= scheme_params.mmd.initial_degree,
        "mmd.max_degree", scheme_params.mmd.max_degree,
        "must be at least the initial degree");
  const fault::FaultConfig& f = hmc.fault;
  for (const auto& [key, rate] :
       {std::pair{"fault.link_crc_rate", f.link_crc_rate},
        std::pair{"fault.link_drop_rate", f.link_drop_rate},
        std::pair{"fault.xbar_drop_rate", f.xbar_drop_rate},
        std::pair{"fault.vault_stall_rate", f.vault_stall_rate}}) {
    check(rate >= 0.0 && rate <= 1.0, key, rate, "must lie in [0, 1]");
  }
  check(f.host_timeout_ticks > 0 ||
            (f.link_drop_rate <= 0.0 && f.xbar_drop_rate <= 0.0),
        "fault.host_timeout_ticks", f.host_timeout_ticks,
        "must be above 0 while fault.link_drop_rate or fault.xbar_drop_rate "
        "is (only the timeout recovers a dropped read)");
  // A packet may not start serializing until every one of its flits holds
  // a token, so the pool must cover the largest packet.
  const u32 max_flits = std::max(hmc::flits_for(hmc::PacketKind::kWriteReq),
                                 hmc::flits_for(hmc::PacketKind::kReadResp));
  check(f.link_tokens == 0 || f.link_tokens >= max_flits, "fault.link_tokens",
        f.link_tokens,
        "must be 0 (no flow control) or hold the largest packet (" +
            std::to_string(max_flits) + " flits)");
  return errors;
}

SystemConfig table1_config(prefetch::SchemeKind scheme) {
  SystemConfig cfg;
  cfg.scheme = scheme;
  return cfg;  // every member default already encodes Table I
}

SystemConfig hmc_gen1_config(prefetch::SchemeKind scheme) {
  SystemConfig cfg = table1_config(scheme);
  cfg.hmc.geometry.vaults = 16;
  cfg.hmc.geometry.banks_per_vault = 8;
  cfg.hmc.geometry.rows_per_bank = 16384;  // 2 GB cube
  cfg.hmc.link.gbps_per_lane = 10.0;
  return cfg;
}

SystemConfig apply_overrides(SystemConfig base, const ConfigFile& cfg) {
  // Every key this function reads. A key outside this list is a typo (or a
  // stale experiment file) and must fail loudly, not silently default.
  static const std::vector<std::string> kKnownKeys = {
      "cores", "seed", "max_cycles", "audit_every",
      "core.issue_width", "core.max_outstanding", "core.warmup",
      "core.measure",
      "hmc.vaults", "hmc.banks", "hmc.links", "hmc.rows_per_bank",
      "buffer.entries", "buffer.hit_latency",
      "camps.threshold", "camps.conflict_entries", "mmd.max_degree",
      "scheme",
      "fault.link_crc_rate", "fault.link_drop_rate", "fault.xbar_drop_rate",
      "fault.vault_stall_rate", "fault.vault_stall_ticks",
      "fault.host_timeout_ticks", "fault.host_backoff_ticks",
      "fault.retry_budget", "fault.degrade_threshold", "fault.link_tokens",
      "fault.seed",
  };
  cfg.require_known(kKnownKeys);
  // u32 fields: a value past their range is rejected, naming the key,
  // instead of wrapping.
  auto get_u32 = [&cfg](const char* key, u32 fallback) {
    return static_cast<u32>(cfg.get_uint(key, fallback, ~u32{0}));
  };

  base.cores = get_u32("cores", base.cores);
  base.seed = cfg.get_uint("seed", base.seed);
  base.max_cycles = cfg.get_uint("max_cycles", base.max_cycles);
  base.audit_every = cfg.get_uint("audit_every", base.audit_every);

  base.core.issue_width = get_u32("core.issue_width", base.core.issue_width);
  base.core.max_outstanding_loads =
      get_u32("core.max_outstanding", base.core.max_outstanding_loads);
  base.core.warmup_instructions =
      cfg.get_uint("core.warmup", base.core.warmup_instructions);
  base.core.measure_instructions =
      cfg.get_uint("core.measure", base.core.measure_instructions);

  base.hmc.geometry.vaults = get_u32("hmc.vaults", base.hmc.geometry.vaults);
  base.hmc.geometry.banks_per_vault =
      get_u32("hmc.banks", base.hmc.geometry.banks_per_vault);
  base.hmc.num_links = get_u32("hmc.links", base.hmc.num_links);
  base.hmc.geometry.rows_per_bank =
      cfg.get_uint("hmc.rows_per_bank", base.hmc.geometry.rows_per_bank);

  base.hmc.vault.buffer.entries =
      get_u32("buffer.entries", base.hmc.vault.buffer.entries);
  base.hmc.vault.buffer.hit_latency =
      cfg.get_uint("buffer.hit_latency", base.hmc.vault.buffer.hit_latency);

  prefetch::SchemeParams& sp = base.scheme_params;
  sp.camps.utilization_threshold =
      get_u32("camps.threshold", sp.camps.utilization_threshold);
  sp.camps.conflict_entries =
      get_u32("camps.conflict_entries", sp.camps.conflict_entries);
  sp.mmd.max_degree = get_u32("mmd.max_degree", sp.mmd.max_degree);

  if (cfg.has("scheme")) {
    try {
      base.scheme = prefetch::scheme_from_string(cfg.get_string("scheme"));
    } catch (const std::out_of_range& e) {
      throw std::out_of_range(std::string("config key 'scheme': ") +
                              e.what());
    }
  }

  fault::FaultConfig& f = base.hmc.fault;
  f.link_crc_rate = cfg.get_double("fault.link_crc_rate", f.link_crc_rate);
  f.link_drop_rate = cfg.get_double("fault.link_drop_rate", f.link_drop_rate);
  f.xbar_drop_rate = cfg.get_double("fault.xbar_drop_rate", f.xbar_drop_rate);
  f.vault_stall_rate =
      cfg.get_double("fault.vault_stall_rate", f.vault_stall_rate);
  f.vault_stall_ticks =
      cfg.get_uint("fault.vault_stall_ticks", f.vault_stall_ticks);
  f.host_timeout_ticks =
      cfg.get_uint("fault.host_timeout_ticks", f.host_timeout_ticks);
  f.host_backoff_ticks =
      cfg.get_uint("fault.host_backoff_ticks", f.host_backoff_ticks);
  f.host_retry_budget = get_u32("fault.retry_budget", f.host_retry_budget);
  f.vault_degrade_threshold =
      get_u32("fault.degrade_threshold", f.vault_degrade_threshold);
  f.link_tokens = get_u32("fault.link_tokens", f.link_tokens);
  f.seed = cfg.get_uint("fault.seed", f.seed);
  return base;
}

}  // namespace camps::system
