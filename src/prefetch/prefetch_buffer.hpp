// The per-vault prefetch buffer (Table I: 16 KB, fully associative, 1 KB
// lines = whole DRAM rows, 22-cycle hit latency).
//
// Rows are inserted whole by the prefetch engine and looked up per demand
// request. Resident rows live in one vector kept in recency order, MRU
// first, so a row's place *is* the paper's recency encoding: the row at
// position p reads entries-1-p (MRU = entries-1 ... LRU = 0 when full).
// A hit rotates the row to the front; an eviction erases it. Per row the
// buffer keeps:
//   - a distinct-line reference bitmap (utilization = popcount; the row
//     proved useful once any bit is set),
//   - a dirty flag (writes hit buffered rows; dirty victims are written
//     back to the bank, costing energy).
// Victim selection follows a Replacement policy so CAMPS (LRU) and
// CAMPS-MOD (utilization+recency) share this implementation.
#pragma once

#include <bit>
#include <optional>
#include <vector>

#include "check/audit.hpp"
#include "prefetch/replacement.hpp"

namespace camps::prefetch {

struct PrefetchBufferConfig {
  u32 entries = 16;        ///< 16 KB / 1 KB rows.
  u32 lines_per_row = 16;  ///< 1 KB row / 64 B lines. Must be <= 64.
  u64 hit_latency = 22;    ///< Vault-controller cycles to serve a hit.
};

/// Outcome of inserting a row (possibly evicting another).
struct EvictedRow {
  BankRow id;
  bool referenced = false;  ///< At least one line was demanded before
                            ///< eviction — the prefetch was *useful*.
  bool dirty = false;       ///< Needs a writeback to the bank.
  u32 utilization = 0;
};

struct InsertResult {
  bool inserted = false;             ///< False if the row was already here.
  std::optional<EvictedRow> victim;  ///< Present when a row was displaced.
};

class PrefetchBuffer final {
 public:
  PrefetchBuffer(const PrefetchBufferConfig& config, Replacement policy);

  /// True if `row` is resident (no state change; used by the scheduler to
  /// filter redundant prefetches).
  bool contains(BankRow row) const;

  /// Serves a demand access. On hit: marks `line` referenced, moves the row
  /// to MRU, sets dirty on writes. Returns whether it hit.
  ///
  /// `fill_touch = true` marks the line that *triggered* the row fetch
  /// (BASE's serve-through-copy path): it counts toward the row's
  /// full-transfer test but not its utilization, and does not make the
  /// prefetch "useful" — only lines the prefetch genuinely anticipated
  /// count toward accuracy.
  bool access(BankRow row, LineId line, AccessType type,
              bool fill_touch = false);

  /// Inserts a freshly fetched row (as MRU). If the buffer is full the
  /// replacement policy picks a victim, returned for writeback/usefulness
  /// accounting. Inserting a resident row is a no-op.
  ///
  /// `seed_bitmap` marks lines that were already served while the row sat
  /// in the DRAM row buffer (e.g. the accesses that pushed it past the RUT
  /// threshold): they count toward utilization — Section 3.2's "all
  /// distinct cache lines accessed" test spans the row's whole life — but
  /// not toward prefetch usefulness.
  ///
  /// `insert_stamp` is a monotonic time (the controller uses DRAM cycles);
  /// the controller compares request arrival times against it to decide
  /// whether a hit is a true prefetch win (request arrived after the data)
  /// or merely a queued demand the copy happened to serve.
  InsertResult insert(BankRow row, u64 seed_bitmap = 0, u64 insert_stamp = 0);

  /// Insert stamp of a resident row; nullopt when absent.
  std::optional<u64> insert_stamp(BankRow row) const;

  /// Evicts every resident row (MRU first), with full eviction accounting,
  /// and returns the victims so the caller can run the usual usefulness /
  /// writeback notifications. Used by the vault's fault-degradation path.
  std::vector<EvictedRow> flush();

  /// Records a lookup miss observed by the controller (which checks
  /// residency with contains() and only calls access() on hits).
  void count_miss() { ++misses_; }

  u32 size() const { return static_cast<u32>(rows_.size()); }
  u32 capacity() const { return cfg_.entries; }
  const PrefetchBufferConfig& config() const { return cfg_; }

  /// Paper recency value (MRU = entries-1) and utilization of a resident
  /// row; nullopt when absent. Exposed for tests.
  std::optional<u32> recency(BankRow row) const;
  std::optional<u32> utilization(BankRow row) const;

  // --- statistics ------------------------------------------------------
  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 inserts() const { return inserts_; }
  /// Rows that were referenced at least once, over all rows that have left
  /// the buffer plus those resident and referenced — the paper's
  /// "prefetching accuracy" numerator grows as prefetches prove useful.
  double row_accuracy() const;

  /// Zeroes all statistics (contents stay resident). Used at the warmup /
  /// measurement boundary.
  void reset_stats();

  /// Invariants: no more rows than entries, each row resident once (so
  /// recencies stay distinct), bitmaps confined to the row's lines, and
  /// the usefulness counters cross-foot.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  struct Entry {
    BankRow id{};
    /// Lines served from the DRAM row buffer before the fetch (plus BASE's
    /// fill-touch line). Counts toward "all data transferred" only.
    u64 seed_bitmap = 0;
    /// Lines demanded from this buffer entry — Section 3.2's utilization
    /// counter is the popcount of this, and any set bit makes the
    /// prefetch useful.
    u64 accessed_bitmap = 0;
    u64 insert_stamp = 0;
    bool dirty = false;

    u32 utilization() const {
      return static_cast<u32>(std::popcount(accessed_bitmap));
    }
    bool fully_transferred(u32 lines_per_row) const {
      return static_cast<u32>(std::popcount(seed_bitmap | accessed_bitmap)) >=
             lines_per_row;
    }
  };

  std::vector<Entry>::const_iterator find(BankRow row) const;
  EvictedRow retire(const Entry& e);

  PrefetchBufferConfig cfg_;
  Replacement policy_;
  std::vector<Entry> rows_;  ///< Front = MRU; position p has recency
                             ///< entries-1-p.
  std::vector<VictimCandidate> candidates_;  ///< Reused by insert().

  u64 hits_ = 0, misses_ = 0, inserts_ = 0;
  u64 finished_rows_ = 0, finished_referenced_ = 0;
};

static_assert(check::Auditable<PrefetchBuffer>);

}  // namespace camps::prefetch
