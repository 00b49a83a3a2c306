// Request-lifecycle tracing: a low-overhead, deterministic span recorder.
//
// Every instrumented component (host controller, serial links, crossbar,
// vault controllers, DRAM banks) records Spans — (stage, track, request id,
// begin tick, end tick) — into one per-System recorder.
// The recorder is a fixed-capacity ring: when full, the oldest spans are
// overwritten, so a run's memory cost is bounded no matter how long it
// executes and the retained window covers the *end* of the run (the
// measured region benches care about).
//
// Cost model: every instrumented component holds the System's recorder by
// reference from construction. A disabled recorder (the default) costs one
// predictable branch per instrumentation point: record() returns
// immediately. Nothing about recording mutates simulation state, so
// enabling tracing can never change simulated results, and a single run's
// spans are identical no matter how many sweep worker threads are in
// flight (each System owns its recorder).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace camps::obs {

/// Lifecycle stages, one taxonomy across the whole memory system. The five
/// instrumented components each own at least one stage (see
/// docs/observability.md for the full map).
enum class Stage : u8 {
  kHostRead,    ///< host_controller: read submission -> response delivery.
  kHostQueue,   ///< host_controller: wait for the downstream link to free.
  kLinkDown,    ///< serial_link: downstream serialization + flight.
  kLinkUp,      ///< serial_link: upstream serialization + flight.
  kXbarDown,    ///< crossbar: link port -> vault port traversal.
  kXbarUp,      ///< crossbar: vault port -> link port traversal.
  kVaultQueue,  ///< vault_controller: enqueue -> first column issue.
  kBufferHit,   ///< vault_controller: hit served from the prefetch buffer.
  kBankAct,     ///< dram/bank: ACT (row open) window.
  kBankPre,     ///< dram/bank: PRE (row close) window.
  kBankService, ///< dram/bank: column command issue -> last data beat.
  kRowFetch,    ///< dram/bank: whole-row copy into the prefetch buffer.
  kPfInsert,    ///< vault_controller: row landed in the buffer (instant).
  kPfEvict,     ///< vault_controller: buffer row displaced (instant).
  kCount
};

const char* to_string(Stage stage);

/// One recorded interval. `track` is a per-stage lane id (core, link, vault,
/// or vault*banks+bank) used as the thread id in trace viewers; `id` is the
/// MemRequest id, or 0 for commands not tied to a single request.
struct Span {
  Tick begin = 0;
  Tick end = 0;
  u64 id = 0;
  u32 track = 0;
  Stage stage = Stage::kHostRead;

  friend bool operator==(const Span&, const Span&) = default;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;

  /// Arms the recorder with a ring of `capacity` spans. Capacity 0 disables.
  void enable(size_t capacity);

  bool enabled() const { return enabled_; }

  /// Records one span. No-op (one branch) when disabled.
  void record(Stage stage, u32 track, u64 id, Tick begin, Tick end) {
    if (!enabled_) return;
    Span& s = ring_[next_];
    s.begin = begin;
    s.end = end;
    s.id = id;
    s.track = track;
    s.stage = stage;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++recorded_;
  }

  /// Spans ever recorded (including ones since overwritten).
  u64 recorded() const { return recorded_; }
  /// Spans lost to ring wrap-around.
  u64 dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  /// Spans currently retained.
  size_t size() const {
    return recorded_ < ring_.size() ? static_cast<size_t>(recorded_)
                                    : ring_.size();
  }

  /// Retained spans in deterministic tick order (begin, end, stage, track,
  /// id) — the order every exporter emits.
  std::vector<Span> sorted_spans() const;

  void clear();

 private:
  std::vector<Span> ring_;
  size_t next_ = 0;
  u64 recorded_ = 0;
  bool enabled_ = false;
};

}  // namespace camps::obs
