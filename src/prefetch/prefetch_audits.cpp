// Cold-path audit() definitions for the CAMPS profiling structures
// (contract: check/audit.hpp; invariant catalog: docs/static_analysis.md).
// Kept out of the hot translation units so the audit code — which runs
// every N-hundred-thousand events, or never — does not dilute their .text.

#include <algorithm>
#include <iterator>
#include <string>

#include "check/audit.hpp"
#include "prefetch/conflict_table.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "prefetch/rut.hpp"
#include "prefetch/scheme_camps.hpp"

namespace camps {

void prefetch::ConflictTable::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "conflict_table");
  rep.expect(lru_.size() <= capacity_, "ct-capacity",
             std::to_string(lru_.size()) + " entries exceed the table's " +
                 std::to_string(capacity_) + "-entry capacity");
  // Fully associative: one entry per (bank,row). A duplicate would make
  // remove() leave a stale copy behind and corrupt the LRU order.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    const auto dup = std::find(std::next(it), lru_.end(), *it);
    rep.expect(dup == lru_.end(), "ct-duplicate",
               "(bank " + std::to_string(it->bank) + ", row " +
                   std::to_string(it->row) +
                   ") appears more than once in the LRU order");
  }
}

void prefetch::RowUtilizationTable::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "rut");
  rep.expect(!entries_.empty(), "rut-shape", "table has no bank slots");
  for (size_t bank = 0; bank < entries_.size(); ++bank) {
    const auto& slot = entries_[bank];
    if (!slot) continue;
    rep.expect(slot->count >= 1, "rut-count",
               "bank " + std::to_string(bank) + " profiles row " +
                   std::to_string(slot->row) +
                   " with a zero request count (entries are created by "
                   "touch() with count 1)");
  }
}

void prefetch::PrefetchBuffer::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "prefetch_buffer");

  // Resident rows sit in recency order, so their recency values
  // (entries-1-position) are distinct as long as the vector fits the
  // buffer and holds each row once — Section 3.2's encoding.
  rep.expect(rows_.size() <= cfg_.entries, "buffer-capacity",
             std::to_string(rows_.size()) + " rows exceed the buffer's " +
                 std::to_string(cfg_.entries) + " entries");
  const u64 line_mask = cfg_.lines_per_row >= 64
                            ? ~u64{0}
                            : (u64{1} << cfg_.lines_per_row) - 1;
  for (auto it = rows_.begin(); it != rows_.end(); ++it) {
    const std::string who = "position " +
                            std::to_string(it - rows_.begin()) + " (bank " +
                            std::to_string(it->id.bank) + ", row " +
                            std::to_string(it->id.row) + ")";
    rep.expect((it->accessed_bitmap & ~line_mask) == 0 &&
                   (it->seed_bitmap & ~line_mask) == 0,
               "bitmap-range",
               who + ": reference bitmap marks lines past the row's " +
                   std::to_string(cfg_.lines_per_row) + " lines");
    // Duplicate residency would let one demand hit two copies.
    const auto dup = std::find_if(
        std::next(it), rows_.end(),
        [&](const Entry& other) { return other.id == it->id; });
    rep.expect(dup == rows_.end(), "duplicate-row",
               who + ": also resident at position " +
                   std::to_string(dup - rows_.begin()));
  }

  rep.expect(finished_referenced_ <= finished_rows_, "eviction-crossfoot",
             "subset counters exceed their totals");
}

void prefetch::CampsScheme::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(
      rep, replacement_ == Replacement::kUtilizationRecency ? "camps_mod"
                                                            : "camps");
  rut_.audit(rep);
  ct_.audit(rep);

  // The CT keeps its configured shape (Table I: 32 entries).
  rep.expect(ct_.capacity() == p_.conflict_entries, "ct-shape",
             "CT capacity " + std::to_string(ct_.capacity()) +
                 " != configured " + std::to_string(p_.conflict_entries));

  // Section 3.1 hand-off exclusivity: a row's profile is either still being
  // accumulated in the RUT (row owns the bank's row buffer) or archived in
  // the CT (row was displaced) — never both at once. Both copies counting
  // the same row would double-trigger prefetches.
  for (BankId bank = 0; bank < rut_.banks(); ++bank) {
    const auto entry = rut_.entry(bank);
    if (!entry) continue;
    rep.expect(!ct_.contains(BankRow{bank, entry->row}), "rut-ct-exclusive",
               "row " + std::to_string(entry->row) + " of bank " +
                   std::to_string(bank) +
                   " is profiled in the RUT and archived in the CT at once");
  }
}

}  // namespace camps
