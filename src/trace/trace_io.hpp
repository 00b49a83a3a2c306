// Binary trace file format (".ctrc"), version 2. Header (little-endian):
//   8 bytes  magic "CAMPSTRC"
//   4 bytes  format version (2)
//   8 bytes  record count
// then each record, varint-delta-encoded:
//   byte 0      flags: bit0 = write, bit1 = addr delta is negative
//   varint      gap
//   varint      zig-zag-free |addr - prev_addr| in 64 B lines
// The first record's delta is taken from address 0; spatially local traces
// take a few bytes per record. The reader rejects every other version,
// including the fixed-width version 1.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace camps::trace {

/// Writes `records` to `path`. Addresses must be 64 B aligned (trace
/// generators guarantee this); throws std::runtime_error otherwise or on
/// I/O failure.
void write_trace_file(const std::string& path,
                      const std::vector<TraceRecord>& records);

/// Reads a whole trace file. Throws std::runtime_error on I/O failure,
/// bad magic, unsupported version, or a truncated/corrupt body; body
/// errors name the failing record.
std::vector<TraceRecord> read_trace_file(const std::string& path);

/// Streaming reader for large files; yields records without loading the
/// whole file.
class TraceFileSource final : public TraceSource {
 public:
  explicit TraceFileSource(const std::string& path);
  ~TraceFileSource() override;
  TraceFileSource(const TraceFileSource&) = delete;
  TraceFileSource& operator=(const TraceFileSource&) = delete;

  std::optional<TraceRecord> next() override;
  void reset() override;

  u64 record_count() const { return count_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  u64 count_ = 0;
};

}  // namespace camps::trace
