// HMC link packets and memory requests.
//
// The HMC protocol moves 16-byte flits over the serial links: a request or
// response carries a header/tail flit plus 16 B data flits. Reads cost one
// request flit and a five-flit response (header + 64 B); writes cost five
// request flits and are posted (no response), per the simplification
// documented in DESIGN.md.
#pragma once

#include "common/types.hpp"

namespace camps::hmc {

inline constexpr u32 kFlitBytes = 16;

/// A memory transaction as seen by the HMC host controller.
struct MemRequest {
  u64 id = 0;             ///< Unique per host controller.
  Addr addr = 0;          ///< Physical line-aligned address.
  AccessType type = AccessType::kRead;
  CoreId core = 0;        ///< Originating core (for per-core stats).
  Tick created = 0;       ///< Tick the request entered the host controller.
  /// Set by the host controller's fault-recovery path when the request
  /// exhausted its retry budget: the completion carries no valid data and
  /// downstream consumers must treat it as an error sentinel. Always false
  /// when fault injection is disabled.
  bool poisoned = false;
};

enum class PacketKind : u8 { kReadReq, kWriteReq, kReadResp };

/// Flits on the wire for each packet kind (64 B payloads).
constexpr u32 flits_for(PacketKind kind) {
  switch (kind) {
    case PacketKind::kReadReq: return 1;
    case PacketKind::kWriteReq: return 1 + 64 / kFlitBytes;
    case PacketKind::kReadResp: return 1 + 64 / kFlitBytes;
  }
  return 1;
}

}  // namespace camps::hmc
