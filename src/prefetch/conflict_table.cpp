#include "prefetch/conflict_table.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/assert.hpp"

namespace camps::prefetch {

ConflictTable::ConflictTable(u32 entries) : capacity_(entries) {
  CAMPS_ASSERT(entries > 0);
  lru_.reserve(capacity_);
}

bool ConflictTable::contains(BankRow id) const {
  return std::find(lru_.begin(), lru_.end(), id) != lru_.end();
}

std::optional<BankRow> ConflictTable::insert(BankRow id) {
  const auto it = std::find(lru_.begin(), lru_.end(), id);
  if (it != lru_.end()) {
    std::rotate(lru_.begin(), it, it + 1);
    return std::nullopt;
  }
  std::optional<BankRow> evicted;
  if (lru_.size() == capacity_) {
    evicted = lru_.back();
    lru_.pop_back();
  }
  lru_.insert(lru_.begin(), id);
  return evicted;
}

bool ConflictTable::remove(BankRow id) {
  const auto it = std::find(lru_.begin(), lru_.end(), id);
  if (it == lru_.end()) return false;
  lru_.erase(it);
  return true;
}

}  // namespace camps::prefetch
