// Lightweight statistics framework.
//
// Every simulator component registers named counters and histograms with a
// StatRegistry. The registry renders a stable, alphabetically sorted dump.
// Derived values (IPC, prefetch accuracy) are computed from the raw counters
// when a run's results are collected, so the counters stay cheap on the hot
// path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace camps {

/// A monotonically increasing event counter.
class Counter {
 public:
  void inc(u64 by = 1) { value_ += by; }
  u64 value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  u64 value_ = 0;
};

/// Fixed-bucket histogram over [0, bucket_width * num_buckets); values past
/// the last bucket land in an overflow bucket. Tracks sum/min/max exactly.
class Histogram {
 public:
  Histogram() : Histogram(16, 64) {}
  Histogram(u64 bucket_width, u32 num_buckets);

  /// Hot path: a handful of adds plus a shift (power-of-two widths) or one
  /// integer division. Components sample per memory access, so keep widths
  /// powers of two where the cost matters.
  void sample(u64 value) {
    u64 idx = shift_ >= 0 ? value >> shift_ : value / bucket_width_;
    if (idx >= buckets_.size() - 1) idx = buckets_.size() - 1;  // overflow
    ++buckets_[idx];
    ++count_;
    sum_ += value;
    if (count_ == 1) {
      min_ = max_ = value;
    } else {
      min_ = value < min_ ? value : min_;
      max_ = value > max_ ? value : max_;
    }
  }

  u64 count() const { return count_; }
  u64 sum() const { return sum_; }
  u64 min() const { return count_ ? min_ : 0; }
  u64 max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }
  /// Linear-interpolated percentile in [0,100]; exact at bucket granularity.
  double percentile(double p) const;
  const std::vector<u64>& buckets() const { return buckets_; }
  u64 bucket_width() const { return bucket_width_; }
  void reset();

 private:
  u64 bucket_width_;
  int shift_;  // log2(bucket_width_) when a power of two, else -1
  std::vector<u64> buckets_;  // last element is the overflow bucket
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
};

/// Central registry. Components hold references to the Counter/Histogram
/// objects it owns; names use '.'-separated paths ("vault7.rd_queue_full").
class StatRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name, u64 bucket_width = 16,
                       u32 num_buckets = 64);

  /// Returns the counter value, or 0 if it was never registered.
  u64 counter_value(const std::string& name) const;
  bool has_counter(const std::string& name) const;

  /// Registered histogram by exact name, or nullptr. Never creates.
  const Histogram* find_histogram(const std::string& name) const;

  /// Sum of all counters whose name matches `prefix*suffix` with a single
  /// '*' wildcard in `pattern` (or exact match when no '*'). Used to
  /// aggregate per-vault counters into device totals.
  u64 sum_matching(const std::string& pattern) const;

  /// Renders "name = value" lines, sorted by name.
  std::string dump() const;

  /// Machine-readable registry dump: {"counters": {...}, "histograms":
  /// {name: {count,sum,min,max,mean,p50,p95,p99,bucket_width,buckets}}}.
  /// Names sort alphabetically and doubles render shortest-round-trip, so
  /// the output is byte-stable across runs and --jobs settings (see
  /// common/json.hpp).
  std::string dump_json(int indent = 0) const;

  void reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace camps
