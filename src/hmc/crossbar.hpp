// The HMC logic-layer crossbar between link ports and vault controllers.
//
// A 4x32 crossbar at logic-layer clock speeds has ample internal bandwidth;
// the performance-relevant effect is its pipeline latency plus head-of-line
// arbitration at each vault port. We model a fixed traversal latency and a
// per-output-port serializer (one packet per vault port per controller
// cycle), which captures the congestion that matters without simulating
// individual switch stages. Each crossbar takes the device's FaultPlan at
// construction; the plan decides which grants drop (never, when it is
// disabled).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "obs/trace_recorder.hpp"

namespace camps::fault {
class FaultPlan;
}  // namespace camps::fault

namespace camps::hmc {

struct CrossbarParams {
  /// Fixed traversal latency in ticks (default 2.5 ns: a couple of logic
  /// layer pipeline stages).
  Tick latency_ticks = 60;
  /// Minimum spacing between packets delivered to the same output port,
  /// in ticks (default: one 800 MHz controller cycle).
  Tick port_interval_ticks = 30;
};

class Crossbar {
 public:
  /// Traversals record as `stage` (kXbarDown or kXbarUp) spans on
  /// `trace`, one lane per output port. `faults` decides which grants
  /// drop; `fault_unit_base` offsets this crossbar's ports in the plan's
  /// sequence space so the down and up crossbars draw independent decision
  /// streams.
  Crossbar(u32 output_ports, const CrossbarParams& params,
           fault::FaultPlan& faults, u32 fault_unit_base,
           obs::TraceRecorder& trace, obs::Stage stage);

  /// Outcome of one traversal attempt.
  struct Routed {
    Tick deliver = 0;     ///< Meaningless when dropped.
    bool dropped = false; ///< Grant lost (injected fault); never forwarded.
  };

  /// Routes a packet submitted at `now` toward `port`; returns its delivery
  /// tick at that port. Per-port FIFO order is preserved. A dropped grant
  /// (fault injection) does not advance the port's schedule — the packet
  /// simply never traversed. `trace_id` tags the traversal span.
  Routed route(Tick now, u32 port, u64 trace_id = 0);

  u64 packets_routed() const { return packets_; }
  u32 ports() const { return static_cast<u32>(port_free_.size()); }

 private:
  CrossbarParams p_;
  fault::FaultPlan& faults_;
  u32 fault_unit_base_;
  obs::TraceRecorder& trace_;
  obs::Stage trace_stage_;
  std::vector<Tick> port_free_;
  u64 packets_ = 0;
};

}  // namespace camps::hmc
