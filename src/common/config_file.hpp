// INI-style configuration file support.
//
// Examples and the experiment harness accept `key = value` files with
// optional `[section]` headers; section names are folded into the key as
// "section.key". Typed getters validate and convert on access so a typo in
// an experiment config fails loudly instead of silently using a default.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace camps {

class ConfigFile {
 public:
  ConfigFile() = default;

  /// Parses from text. Throws std::runtime_error with line information on a
  /// malformed line.
  static ConfigFile parse(const std::string& text);

  /// Loads and parses a file. Throws std::runtime_error if unreadable.
  static ConfigFile load(const std::string& path);

  bool has(const std::string& key) const;

  /// Typed getters: return the parsed value, or `fallback` when the key is
  /// absent. Throw std::runtime_error when the key exists but does not
  /// parse as the requested type (or, for get_uint, exceeds `max` — pass
  /// the field's limit so a narrowing store cannot wrap).
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  i64 get_int(const std::string& key, i64 fallback = 0) const;
  u64 get_uint(const std::string& key, u64 fallback = 0,
               u64 max = ~u64{0}) const;
  double get_double(const std::string& key, double fallback = 0.0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  void set(const std::string& key, const std::string& value);

  /// All keys, sorted.
  std::vector<std::string> keys() const;

  /// Validates that every key present is in `known`. Throws
  /// std::runtime_error naming each unknown key — with a did-you-mean
  /// suggestion when a known key is a near miss — so a typo like
  /// `audit_evry` fails loudly instead of silently using the default.
  void require_known(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace camps
