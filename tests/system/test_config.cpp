#include "system/config.hpp"

#include <filesystem>
#include <gtest/gtest.h>
#include <ostream>
#include <string>
#include <vector>

#include "prefetch/scheme_camps.hpp"
#include "system/system.hpp"

namespace camps::system {
namespace {

TEST(SystemConfig, TableIDefaults) {
  const SystemConfig cfg = table1_config();
  EXPECT_EQ(cfg.cores, 8u);
  EXPECT_EQ(cfg.core.issue_width, 4u);
  EXPECT_EQ(cfg.caches.l1.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.caches.l1.ways, 2u);
  EXPECT_EQ(cfg.caches.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(cfg.caches.l2.ways, 4u);
  EXPECT_EQ(cfg.caches.l3.size_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(cfg.caches.l3.ways, 16u);
  EXPECT_EQ(cfg.caches.l3.line_bytes, 64u);
  EXPECT_EQ(cfg.hmc.geometry.vaults, 32u);
  EXPECT_EQ(cfg.hmc.geometry.banks_per_vault, 16u);
  EXPECT_EQ(cfg.hmc.geometry.row_bytes, 1024u);
  EXPECT_EQ(cfg.hmc.vault.read_queue, 32u);
  EXPECT_EQ(cfg.hmc.vault.write_queue, 32u);
  EXPECT_EQ(cfg.hmc.num_links, 4u);
  EXPECT_EQ(cfg.hmc.vault.buffer.entries, 16u);
  EXPECT_EQ(cfg.hmc.vault.buffer.hit_latency, 22u);
  EXPECT_EQ(cfg.hmc.vault.timing.tRCD, 11u);
  EXPECT_EQ(cfg.scheme, prefetch::SchemeKind::kCampsMod);
}

TEST(SystemConfig, SchemeParameterPropagates) {
  EXPECT_EQ(table1_config(prefetch::SchemeKind::kBase).scheme,
            prefetch::SchemeKind::kBase);
}

TEST(SystemConfig, PatternGeometryMatchesAddressMap) {
  const SystemConfig cfg = table1_config();
  const auto g = cfg.pattern_geometry();
  EXPECT_EQ(g.line_bytes, 64u);
  EXPECT_EQ(g.row_bytes, 1024u);
  EXPECT_EQ(g.same_bank_row_stride, u64{1} << 19);
}

TEST(SystemConfig, CoreSliceDividesCapacity) {
  const SystemConfig cfg = table1_config();
  EXPECT_EQ(cfg.core_slice_bytes(), (u64{8} << 30) / 8);
}

TEST(SystemConfig, OverridesApply) {
  auto cfg = ConfigFile::parse(
      "cores = 4\n"
      "seed = 99\n"
      "core.issue_width = 2\n"
      "core.warmup = 1000\n"
      "core.measure = 5000\n"
      "hmc.vaults = 16\n"
      "buffer.entries = 8\n"
      "camps.threshold = 6\n"
      "scheme = MMD\n");
  const SystemConfig out = apply_overrides(table1_config(), cfg);
  EXPECT_EQ(out.cores, 4u);
  EXPECT_EQ(out.seed, 99u);
  EXPECT_EQ(out.core.issue_width, 2u);
  EXPECT_EQ(out.core.warmup_instructions, 1000u);
  EXPECT_EQ(out.core.measure_instructions, 5000u);
  EXPECT_EQ(out.hmc.geometry.vaults, 16u);
  EXPECT_EQ(out.hmc.vault.buffer.entries, 8u);
  EXPECT_EQ(out.scheme_params.camps.utilization_threshold, 6u);
  EXPECT_EQ(out.scheme, prefetch::SchemeKind::kMmd);
}

TEST(SystemConfig, OverridesKeepDefaultsWhenAbsent) {
  const SystemConfig out =
      apply_overrides(table1_config(), ConfigFile::parse(""));
  EXPECT_EQ(out.cores, 8u);
  EXPECT_EQ(out.scheme, prefetch::SchemeKind::kCampsMod);
}

TEST(SystemConfig, BankOverrideKeepsVaultConsistent) {
  auto cfg = ConfigFile::parse("hmc.banks = 8\n");
  const SystemConfig out = apply_overrides(table1_config(), cfg);
  EXPECT_EQ(out.hmc.geometry.banks_per_vault, 8u);
  // Vaults size their per-bank state from the geometry: CAMPS-MOD's RUT
  // holds one entry per bank.
  auto sys = make_workload_system(out, "MX1");
  const auto& scheme = dynamic_cast<const prefetch::CampsScheme&>(
      sys->memory().device().vault(0).scheme());
  EXPECT_EQ(scheme.rut().banks(), 8u);
}

TEST(SystemConfig, BadSchemeNameThrows) {
  auto cfg = ConfigFile::parse("scheme = turbo\n");
  EXPECT_THROW(apply_overrides(table1_config(), cfg), std::out_of_range);
  // The message names the key and the valid schemes.
  try {
    apply_overrides(table1_config(), cfg);
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("config key 'scheme'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("CAMPS-MOD"), std::string::npos) << msg;
  }
}

TEST(SystemConfig, MisspelledKeyFailsLoudly) {
  // Regression: a typo'd key used to be silently ignored, leaving the
  // default in force — e.g. audits that never ran. It must throw, naming
  // the bad key and the intended one.
  auto cfg = ConfigFile::parse("audit_evry = 100000\n");
  try {
    apply_overrides(table1_config(), cfg);
    FAIL() << "misspelled key was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("audit_evry"), std::string::npos) << msg;
    EXPECT_NE(msg.find("audit_every"), std::string::npos) << msg;
  }
}

TEST(SystemConfig, ValuePastItsFieldRangeFailsNamingTheKey) {
  // Regression: u32 fields used to take the low 32 bits of a larger value,
  // so hmc.banks = 2^32+16 quietly built a 16-bank cube and cores = 2^32+1
  // became one core.
  for (const char* line :
       {"hmc.banks = 4294967312\n", "cores = 4294967297\n",
        "fault.link_tokens = 4294967296\n"}) {
    const auto cfg = ConfigFile::parse(line);
    const std::string key = cfg.keys().front();
    try {
      apply_overrides(table1_config(), cfg);
      FAIL() << "accepted " << line;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("up to 4294967295"), std::string::npos) << msg;
    }
  }
  // The largest u32 itself is still in range (validate() judges it).
  const SystemConfig out = apply_overrides(
      table1_config(), ConfigFile::parse("camps.threshold = 4294967295\n"));
  EXPECT_EQ(out.scheme_params.camps.utilization_threshold, 4294967295u);
}

TEST(SystemConfig, FaultOverridesApply) {
  auto cfg = ConfigFile::parse(
      "[fault]\n"
      "link_crc_rate = 0.0001\n"
      "link_drop_rate = 0.001\n"
      "xbar_drop_rate = 0.002\n"
      "vault_stall_rate = 0.003\n"
      "vault_stall_ticks = 4800\n"
      "host_timeout_ticks = 96000\n"
      "host_backoff_ticks = 24000\n"
      "retry_budget = 5\n"
      "degrade_threshold = 8\n"
      "link_tokens = 64\n"
      "seed = 42\n");
  const SystemConfig out = apply_overrides(table1_config(), cfg);
  const fault::FaultConfig& f = out.hmc.fault;
  EXPECT_DOUBLE_EQ(f.link_crc_rate, 0.0001);
  EXPECT_DOUBLE_EQ(f.link_drop_rate, 0.001);
  EXPECT_DOUBLE_EQ(f.xbar_drop_rate, 0.002);
  EXPECT_DOUBLE_EQ(f.vault_stall_rate, 0.003);
  EXPECT_EQ(f.vault_stall_ticks, 4800u);
  EXPECT_EQ(f.host_timeout_ticks, 96000u);
  EXPECT_EQ(f.host_backoff_ticks, 24000u);
  EXPECT_EQ(f.host_retry_budget, 5u);
  EXPECT_EQ(f.vault_degrade_threshold, 8u);
  EXPECT_EQ(f.link_tokens, 64u);
  EXPECT_EQ(f.seed, 42u);
  EXPECT_TRUE(f.enabled());
}

TEST(SystemConfig, FaultsDisabledByDefault) {
  const SystemConfig out =
      apply_overrides(table1_config(), ConfigFile::parse(""));
  EXPECT_FALSE(out.hmc.fault.enabled());
}

TEST(SystemConfig, ShippedConfigsLoad) {
  // Every file in configs/ must load as documented (`camps_sim
  // --config=FILE`): a key placed under the wrong [section] header fails
  // the unknown-key check.
  int loaded = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CAMPS_CONFIG_DIR)) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().string());
    SystemConfig cfg;
    EXPECT_NO_THROW(cfg = apply_overrides(
                        table1_config(),
                        ConfigFile::load(entry.path().string())));
    EXPECT_TRUE(cfg.validate().empty());
    ++loaded;
  }
  EXPECT_GT(loaded, 0);
}

TEST(SystemConfig, PresetConfigsValidate) {
  EXPECT_TRUE(table1_config().validate().empty());
  EXPECT_TRUE(hmc_gen1_config().validate().empty());
}

TEST(SystemConfig, ReadTimeoutsMayBeOffOnlyWithoutDrops) {
  SystemConfig cfg = table1_config();
  cfg.hmc.fault.host_timeout_ticks = 0;
  cfg.hmc.fault.link_crc_rate = 0.01;  // replayed, never lost
  EXPECT_TRUE(cfg.validate().empty());
  cfg.hmc.fault.xbar_drop_rate = 0.01;
  const std::vector<std::string> errors = cfg.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].rfind("fault.host_timeout_ticks = 0:", 0), 0u)
      << errors[0];
}

// One row per bound SystemConfig::validate() enforces: an INI override
// that a component constructor would assert on, the key the error must
// name, and a phrase of the rule it must state.
struct BadValue {
  const char* ini;
  const char* key_and_value;
  const char* rule;
};

// Names each ctest after its row ("hmc.banks=64") instead of the struct's
// pointer bytes, which change from run to run.
void PrintTo(const BadValue& c, std::ostream* os) {
  for (const char* p = c.key_and_value; *p != ':'; ++p) {
    if (*p != ' ') *os << *p;
  }
}

class ValidateRejects : public ::testing::TestWithParam<BadValue> {};

TEST_P(ValidateRejects, NamesTheKey) {
  const BadValue& c = GetParam();
  const SystemConfig cfg =
      apply_overrides(table1_config(), ConfigFile::parse(c.ini));
  const std::vector<std::string> errors = cfg.validate();
  ASSERT_EQ(errors.size(), 1u) << c.ini;
  EXPECT_EQ(errors[0].rfind(c.key_and_value, 0), 0u) << errors[0];
  EXPECT_NE(errors[0].find(c.rule), std::string::npos) << errors[0];
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, ValidateRejects,
    ::testing::Values(
        BadValue{"cores = 0", "cores = 0:", "at least 1"},
        BadValue{"[core]\nissue_width = 0", "core.issue_width = 0:",
                 "at least 1"},
        BadValue{"[core]\nmax_outstanding = 0", "core.max_outstanding = 0:",
                 "at least 1"},
        BadValue{"[hmc]\nvaults = 24", "hmc.vaults = 24:", "power of two"},
        BadValue{"[hmc]\nbanks = 64", "hmc.banks = 64:", "no larger than 32"},
        BadValue{"[hmc]\nbanks = 12", "hmc.banks = 12:", "power of two"},
        BadValue{"[hmc]\nlinks = 0", "hmc.links = 0:", "at least 1"},
        BadValue{"cores = 70000", "cores = 70000:", "at most 65536"},
        BadValue{"[hmc]\nvaults = 131072", "hmc.vaults = 131072:",
                 "at most 65536"},
        BadValue{"[hmc]\nlinks = 70000", "hmc.links = 70000:",
                 "at most 65536"},
        BadValue{"[hmc]\nrows_per_bank = 1000", "hmc.rows_per_bank = 1000:",
                 "power of two"},
        BadValue{"[buffer]\nentries = 0", "buffer.entries = 0:",
                 "at least 1"},
        BadValue{"[camps]\nthreshold = 0", "camps.threshold = 0:",
                 "at least 1"},
        BadValue{"[camps]\nconflict_entries = 0",
                 "camps.conflict_entries = 0:", "at least 1"},
        BadValue{"[mmd]\nmax_degree = 0", "mmd.max_degree = 0:",
                 "initial degree"},
        BadValue{"[fault]\nlink_crc_rate = 1.5", "fault.link_crc_rate = 1.5:",
                 "[0, 1]"},
        BadValue{"[fault]\nlink_drop_rate = 2", "fault.link_drop_rate = 2:",
                 "[0, 1]"},
        BadValue{"[fault]\nxbar_drop_rate = -0.5",
                 "fault.xbar_drop_rate = -0.5:", "[0, 1]"},
        BadValue{"[fault]\nvault_stall_rate = 3",
                 "fault.vault_stall_rate = 3:", "[0, 1]"},
        BadValue{"[fault]\nlink_tokens = 2", "fault.link_tokens = 2:",
                 "largest packet (5 flits)"},
        BadValue{"[fault]\nlink_drop_rate = 0.01\nhost_timeout_ticks = 0",
                 "fault.host_timeout_ticks = 0:",
                 "above 0 while fault.link_drop_rate"}));

}  // namespace
}  // namespace camps::system
