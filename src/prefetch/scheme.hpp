// Memory-side prefetch scheme interface.
//
// One scheme instance lives in each vault controller. The controller calls
// on_demand_access() as it services each demand request at the DRAM (after
// the prefetch buffer missed) and executes the returned decision: fetch the
// open row into the buffer, optionally precharge the bank afterwards, and
// fetch any extra rows (MMD's prefetch degree > 1). Feedback callbacks let
// usefulness-driven schemes (MMD) adapt.
#pragma once

#include <string>
#include <vector>

#include "check/audit.hpp"
#include "dram/bank.hpp"
#include "prefetch/replacement.hpp"

namespace camps::prefetch {

/// Everything a scheme may inspect about one demand access.
struct AccessContext {
  BankId bank = 0;
  RowId row = 0;
  LineId line = 0;
  AccessType type = AccessType::kRead;
  /// Row-buffer state the access found (hit / empty / conflict), evaluated
  /// before any ACT/PRE the controller performs to serve it.
  dram::RowBufferOutcome outcome = dram::RowBufferOutcome::kEmpty;
  /// How many *other* requests currently waiting in the read queue target
  /// the same row (BASE-HIT's trigger).
  u32 queued_same_row = 0;
  /// Vault-controller (DRAM) cycle of service.
  u64 dram_cycle = 0;
};

/// What the controller should do after serving the access.
struct PrefetchDecision {
  bool fetch_row = false;       ///< Copy the open row into the buffer.
  bool precharge_after = false; ///< Close the bank once the copy is done.
  /// The demand itself is satisfied *through* the row copy: no separate RD
  /// is issued; the response leaves once the copy lands in the buffer.
  /// This is BASE's defining behaviour ("prefetches a whole row on every
  /// memory request") — the demand pays the full copy latency.
  bool serve_via_buffer = false;
  /// Additional same-bank rows to prefetch (each needs its own ACT; used by
  /// MMD when its degree exceeds 1).
  std::vector<RowId> extra_rows;

  bool any() const { return fetch_row || !extra_rows.empty(); }
};

class PrefetchScheme {
 public:
  virtual ~PrefetchScheme() = default;

  /// Audits the scheme's internal profiling structures. Stateless schemes
  /// have nothing to check; CAMPS overrides this with the RUT/CT rules.
  /// Virtual (unlike the check::Auditable concept elsewhere) because
  /// schemes are owned through this interface — the vtable already exists.
  virtual void audit(check::AuditReporter& /*reporter*/) const {}

  /// Called once per demand access serviced at the DRAM banks.
  virtual PrefetchDecision on_demand_access(const AccessContext& ctx) = 0;

  /// Called when a prefetched row leaves the buffer; `was_used` reports
  /// whether any of its lines were demanded (MMD's usefulness feedback).
  virtual void on_prefetch_evicted(BankRow /*row*/, bool /*was_used*/) {}

  /// Called when the vault degrades under repeated faults and flushes its
  /// prefetch state: the scheme must drop every profiling entry (RUT, CT,
  /// stream tables, ...) so no table references rows whose buffer copies
  /// are gone. Empty tables trivially satisfy every hand-off invariant, so
  /// a flush is always audit-clean. Stateless schemes need nothing.
  virtual void on_fault_flush() {}

  virtual std::string name() const = 0;

  /// Replacement policy this scheme pairs with (Section 5 fixes LRU for
  /// everything except CAMPS-MOD).
  virtual Replacement replacement() const { return Replacement::kLru; }
};

}  // namespace camps::prefetch
