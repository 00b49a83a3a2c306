// Model-invariant auditing (the runtime half of the correctness tooling).
//
// Every stateful model component implements Auditable: audit() re-derives
// the component's structural invariants from scratch — heap shape, LRU
// order, unique buffered rows, FSM bookkeeping — and reports anything that
// does not hold to an AuditReporter. Audits never mutate model state, so
// they can run at any event boundary; the driver (System, camps_sim
// --audit-every=N, bench --audit) runs them periodically and routes
// violations through the CAMPS_ASSERT fail path with a full state dump.
//
// Reporters collect instead of aborting so tests can corrupt a component on
// purpose and assert the audit *reports* the damage (see
// tests/check/test_audit.cpp and the TestCorruptor friend hook below).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace camps::check {

/// Test-only back door: components befriend this struct so corruption-
/// injection tests can damage private state and prove the audit catches it.
/// Defined only inside the test binaries; production code never touches it.
struct TestCorruptor;

/// One invariant that failed to hold.
struct Violation {
  std::string component;  ///< Dotted path, e.g. "vault3.bank7".
  std::string invariant;  ///< Short rule name, e.g. "lru-duplicate".
  std::string detail;     ///< Human-readable specifics.
  std::string state;      ///< Optional state dump of the component.
  Tick tick = 0;          ///< Simulation time of the audit.
};

/// Collects violations across one audit pass. Component names nest through
/// AuditScope so a vault's bank reports as "vault3.bank7" without either
/// component knowing the full path.
class AuditReporter {
 public:
  /// Simulation time stamped onto subsequent violations.
  void set_tick(Tick tick) { tick_ = tick; }
  Tick tick() const { return tick_; }

  /// Records a violation against the current component scope.
  void violation(std::string invariant, std::string detail,
                 std::string state = {});

  /// Convenience: counts a check and records a violation when `ok` is
  /// false. Returns `ok` so callers can chain dependent checks.
  bool expect(bool ok, const char* invariant, std::string detail,
              std::string state = {});

  const std::vector<Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  /// Total expect() calls — lets tests assert an audit actually ran.
  u64 checks_run() const { return checks_; }

  /// Formatted multi-line report of every violation.
  std::string report() const;

  std::string component() const;

 private:
  friend class AuditScope;
  std::vector<std::string> scope_;
  std::vector<Violation> violations_;
  Tick tick_ = 0;
  u64 checks_ = 0;
};

/// RAII component-name segment: pushes `name` onto the reporter's dotted
/// path for the lifetime of the scope.
class AuditScope {
 public:
  AuditScope(AuditReporter& rep, std::string name) : rep_(rep) {
    rep_.scope_.push_back(std::move(name));
  }
  ~AuditScope() { rep_.scope_.pop_back(); }
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  AuditReporter& rep_;
};

/// Implemented by every auditable model component. audit() must be
/// side-effect free on the model: it only reads state and reports.
///
/// Deliberately a concept, not a virtual base: every owner audits its
/// concrete members directly (a vault audits *its* banks, the system audits
/// *its* host controller), so nothing ever dispatches through an
/// `Auditable*`. A virtual base would plant a vtable pointer in the hottest
/// model objects — banks sit in per-vault arrays whose stride the prefetch
/// hot path walks — for dispatch that never happens. Components declare
/// `void audit(AuditReporter&) const` and assert conformance with
/// `static_assert(check::Auditable<T>)` next to the class. The one place
/// that needs dynamic dispatch — prefetch schemes held by unique_ptr — puts
/// a virtual audit() on PrefetchScheme itself, which already owns a vtable.
template <typename T>
concept Auditable = requires(const T& component, AuditReporter& rep) {
  { component.audit(rep) };
};

/// Terminal path for a failed audit: prints the full report to stderr and
/// aborts through the CAMPS_ASSERT fail machinery. Call only when
/// !reporter.clean().
[[noreturn]] void audit_fail(const AuditReporter& reporter);

}  // namespace camps::check
