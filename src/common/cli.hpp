// Strict command-line value parsing shared by the front ends (camps_sim,
// camps_bench). A value must parse whole: `--warmup=abc` silently running 0
// warmup instructions, or `--fault-rate=oops` silently becoming rate 0,
// would waste a run and report numbers for a config nobody asked for.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace camps::cli {

/// A malformed or unknown command-line argument. what() names the flag;
/// front ends print it with their usage text and exit with status 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// If `arg` is `<flag>=VALUE` (flag with its leading dashes), stores VALUE
/// in *value and returns true.
bool flag_value(const std::string& arg, std::string_view flag,
                std::string* value);

/// Whole-value unsigned decimal no larger than `max`.
u64 parse_u64(std::string_view flag, const std::string& value,
              u64 max = ~u64{0});

/// Whole-value finite floating-point number.
double parse_double(std::string_view flag, const std::string& value);

}  // namespace camps::cli
