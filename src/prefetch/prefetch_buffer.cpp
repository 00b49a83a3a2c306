#include "prefetch/prefetch_buffer.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/assert.hpp"

namespace camps::prefetch {

PrefetchBuffer::PrefetchBuffer(const PrefetchBufferConfig& config,
                               Replacement policy)
    : cfg_(config), policy_(policy) {
  CAMPS_ASSERT(cfg_.entries > 0);
  CAMPS_ASSERT_MSG(cfg_.lines_per_row >= 1 && cfg_.lines_per_row <= 64,
                   "reference bitmap is a u64");
  rows_.reserve(cfg_.entries);
  candidates_.reserve(cfg_.entries);
}

std::vector<PrefetchBuffer::Entry>::const_iterator PrefetchBuffer::find(
    BankRow row) const {
  return std::find_if(rows_.begin(), rows_.end(),
                      [row](const Entry& e) { return e.id == row; });
}

bool PrefetchBuffer::contains(BankRow row) const {
  return find(row) != rows_.end();
}

std::optional<u32> PrefetchBuffer::recency(BankRow row) const {
  const auto it = find(row);
  if (it == rows_.end()) return std::nullopt;
  // MRU (position 0) always reads entries-1, per Section 3.2; the LRU of a
  // full buffer reads 0.
  return cfg_.entries - 1 - static_cast<u32>(it - rows_.begin());
}

std::optional<u32> PrefetchBuffer::utilization(BankRow row) const {
  const auto it = find(row);
  if (it == rows_.end()) return std::nullopt;
  return it->utilization();
}

bool PrefetchBuffer::access(BankRow row, LineId line, AccessType type,
                            bool fill_touch) {
  CAMPS_ASSERT(line < cfg_.lines_per_row);
  const auto found = find(row);
  if (found == rows_.end()) {
    ++misses_;
    return false;
  }
  // Move the row to MRU; the rows it passes each age by one.
  const auto it = rows_.begin() + (found - rows_.cbegin());
  std::rotate(rows_.begin(), it, it + 1);
  Entry& e = rows_.front();
  const u64 bit = u64{1} << line;
  if (fill_touch) {
    // The line that triggered the fetch: its data was transferred, but it
    // neither proves the prefetch useful nor raises retention value.
    e.seed_bitmap |= bit;
  } else {
    e.accessed_bitmap |= bit;
    ++hits_;
  }
  if (type == AccessType::kWrite) e.dirty = true;
  return true;
}

EvictedRow PrefetchBuffer::retire(const Entry& e) {
  const EvictedRow victim{
      .id = e.id,
      .referenced = e.accessed_bitmap != 0,
      .dirty = e.dirty,
      .utilization = e.utilization(),
  };
  ++finished_rows_;
  if (victim.referenced) ++finished_referenced_;
  return victim;
}

std::optional<u64> PrefetchBuffer::insert_stamp(BankRow row) const {
  const auto it = find(row);
  if (it == rows_.end()) return std::nullopt;
  return it->insert_stamp;
}

InsertResult PrefetchBuffer::insert(BankRow row, u64 seed_bitmap,
                                    u64 stamp) {
  InsertResult result;
  if (contains(row)) return result;
  if (cfg_.lines_per_row < 64) {
    seed_bitmap &= (u64{1} << cfg_.lines_per_row) - 1;
  }

  if (rows_.size() == cfg_.entries) {
    candidates_.clear();
    for (u32 pos = 0; pos < rows_.size(); ++pos) {
      const Entry& e = rows_[pos];
      candidates_.push_back(VictimCandidate{
          .slot = pos,
          .utilization = e.utilization(),
          .recency = cfg_.entries - 1 - pos,
          .fully_used = e.fully_transferred(cfg_.lines_per_row),
      });
    }
    const u32 victim = pick_victim(policy_, candidates_);
    CAMPS_ASSERT_MSG(victim < rows_.size(),
                     "policy returned an invalid victim");
    result.victim = retire(rows_[victim]);
    rows_.erase(rows_.begin() + victim);
  }

  rows_.insert(rows_.begin(), Entry{.id = row,
                                    .seed_bitmap = seed_bitmap,
                                    .accessed_bitmap = 0,
                                    .insert_stamp = stamp,
                                    .dirty = false});
  ++inserts_;
  result.inserted = true;
  return result;
}

std::vector<EvictedRow> PrefetchBuffer::flush() {
  std::vector<EvictedRow> victims;
  victims.reserve(rows_.size());
  for (const Entry& e : rows_) victims.push_back(retire(e));
  rows_.clear();
  return victims;
}

void PrefetchBuffer::reset_stats() {
  hits_ = misses_ = inserts_ = 0;
  finished_rows_ = finished_referenced_ = 0;
}

double PrefetchBuffer::row_accuracy() const {
  // Count rows that have left the buffer plus resident rows, crediting any
  // row that was referenced at least once.
  const u64 total = finished_rows_ + rows_.size();
  u64 useful = finished_referenced_;
  for (const auto& e : rows_) {
    if (e.accessed_bitmap != 0) ++useful;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(useful) / static_cast<double>(total);
}

}  // namespace camps::prefetch
