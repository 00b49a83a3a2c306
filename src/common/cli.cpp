#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

namespace camps::cli {
namespace {

[[noreturn]] void bad_value(std::string_view flag,
                            const std::string& expected,
                            const std::string& value) {
  throw UsageError(std::string(flag) + " expects " + expected + ", got \"" +
                   value + "\"");
}

}  // namespace

bool flag_value(const std::string& arg, std::string_view flag,
                std::string* value) {
  if (arg.size() <= flag.size() || arg.compare(0, flag.size(), flag) != 0 ||
      arg[flag.size()] != '=') {
    return false;
  }
  *value = arg.substr(flag.size() + 1);
  return true;
}

u64 parse_u64(std::string_view flag, const std::string& value, u64 max) {
  u64 out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc{} || ptr != end || out > max) {
    bad_value(flag,
              max == ~u64{0} ? "a number"
                             : "a number up to " + std::to_string(max),
              value);
  }
  return out;
}

double parse_double(std::string_view flag, const std::string& value) {
  char* end = nullptr;
  const double out = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(out)) {
    bad_value(flag, "a number", value);
  }
  return out;
}

}  // namespace camps::cli
