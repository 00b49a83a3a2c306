#include "common/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace camps {
namespace {

std::string trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& type) {
  throw std::runtime_error("config key '" + key + "': value '" + value +
                           "' is not a valid " + type);
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments ('#' or ';' to end of line).
    if (auto pos = line.find_first_of("#;"); pos != std::string::npos) {
      line.erase(pos);
    }
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("config line " + std::to_string(lineno) +
                                 ": unterminated section header");
      }
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": expected 'key = value'");
    }
    std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": empty key");
    }
    if (!section.empty()) key = section + "." + key;
    cfg.values_[key] = value;
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

bool ConfigFile::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string ConfigFile::get_string(const std::string& key,
                                   const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

i64 ConfigFile::get_int(const std::string& key, i64 fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  i64 out = 0;
  const auto& v = it->second;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) {
    bad_value(key, v, "integer");
  }
  return out;
}

u64 ConfigFile::get_uint(const std::string& key, u64 fallback,
                         u64 max) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  u64 out = 0;
  const auto& v = it->second;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size() || out > max) {
    bad_value(key, v,
              max == ~u64{0}
                  ? std::string("unsigned integer")
                  : "unsigned integer up to " + std::to_string(max));
  }
  return out;
}

double ConfigFile::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto& v = it->second;
  try {
    size_t consumed = 0;
    const double out = std::stod(v, &consumed);
    if (consumed != v.size()) bad_value(key, v, "number");
    return out;
  } catch (const std::logic_error&) {
    bad_value(key, v, "number");
  }
}

bool ConfigFile::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  bad_value(key, it->second, "boolean");
}

void ConfigFile::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::vector<std::string> ConfigFile::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

namespace {

/// Levenshtein distance, for did-you-mean suggestions on unknown keys.
size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

void ConfigFile::require_known(const std::vector<std::string>& known) const {
  std::string errors;
  for (const auto& [key, _] : values_) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    if (!errors.empty()) errors += "; ";
    errors += "unknown config key '" + key + "'";
    // Suggest the closest known key when it is plausibly a typo.
    const std::string* best = nullptr;
    size_t best_dist = 0;
    for (const std::string& k : known) {
      const size_t d = edit_distance(key, k);
      if (best == nullptr || d < best_dist) {
        best = &k;
        best_dist = d;
      }
    }
    if (best != nullptr && best_dist <= std::max<size_t>(2, key.size() / 4)) {
      errors += " (did you mean '" + *best + "'?)";
    }
  }
  if (!errors.empty()) throw std::runtime_error(errors);
}

}  // namespace camps
