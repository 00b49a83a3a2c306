#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "common/json.hpp"

namespace camps {

Histogram::Histogram(u64 bucket_width, u32 num_buckets)
    : bucket_width_(bucket_width),
      shift_((bucket_width & (bucket_width - 1)) == 0
                 ? std::countr_zero(bucket_width)
                 : -1),
      buckets_(num_buckets + 1, 0) {
  CAMPS_ASSERT(bucket_width > 0);
  CAMPS_ASSERT(num_buckets > 0);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const u64 target = static_cast<u64>(p / 100.0 * static_cast<double>(count_ - 1));
  u64 seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) {
      // Midpoint of the bucket; overflow bucket reports its lower edge.
      const double lo = static_cast<double>(i) * static_cast<double>(bucket_width_);
      if (i == buckets_.size() - 1) return lo;
      return lo + static_cast<double>(bucket_width_) / 2.0;
    }
  }
  return static_cast<double>(max_);
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = min_ = max_ = 0;
}

Counter& StatRegistry::counter(const std::string& name) {
  return counters_[name];
}

Histogram& StatRegistry::histogram(const std::string& name, u64 bucket_width,
                                   u32 num_buckets) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(bucket_width, num_buckets)).first;
  }
  return it->second;
}

u64 StatRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

bool StatRegistry::has_counter(const std::string& name) const {
  return counters_.count(name) != 0;
}

const Histogram* StatRegistry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

u64 StatRegistry::sum_matching(const std::string& pattern) const {
  const auto star = pattern.find('*');
  if (star == std::string::npos) return counter_value(pattern);
  const std::string prefix = pattern.substr(0, star);
  const std::string suffix = pattern.substr(star + 1);
  u64 total = 0;
  // counters_ is sorted; jump to the first key >= prefix.
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, prefix.size(), prefix) != 0) break;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second.value();
    }
  }
  return total;
}

std::string StatRegistry::dump() const {
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << " = " << c.value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out << name << " = {count=" << h.count() << " mean=" << h.mean()
        << " min=" << h.min() << " max=" << h.max()
        << " p50=" << h.percentile(50) << " p99=" << h.percentile(99) << "}\n";
  }
  return out.str();
}

std::string StatRegistry::dump_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c.value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("min", h.min());
    w.field("max", h.max());
    w.field("mean", h.mean());
    w.field("p50", h.percentile(50));
    w.field("p95", h.percentile(95));
    w.field("p99", h.percentile(99));
    w.field("bucket_width", h.bucket_width());
    w.key("buckets");
    w.begin_array();
    for (u64 b : h.buckets()) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void StatRegistry::reset() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, h] : histograms_) h.reset();
}

}  // namespace camps
