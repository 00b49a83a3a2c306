#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "temp_path.hpp"

namespace camps::trace {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string path_ = test_util::temp_path(".ctrc");
  void TearDown() override { std::remove(path_.c_str()); }
};

std::vector<TraceRecord> sample(size_t n) {
  std::vector<TraceRecord> v;
  for (size_t i = 0; i < n; ++i) {
    v.push_back({static_cast<u32>(i % 7), 0x1000 + 64 * i,
                 i % 3 == 0 ? AccessType::kWrite : AccessType::kRead});
  }
  return v;
}

TEST_F(TraceIoTest, RoundTripSmall) {
  const auto records = sample(10);
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, RoundTripEmpty) {
  write_trace_file(path_, {});
  EXPECT_TRUE(read_trace_file(path_).empty());
}

TEST_F(TraceIoTest, RoundTripLarge) {
  const auto records = sample(50000);
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, ExtremeFieldValues) {
  const std::vector<TraceRecord> records = {
      {0xFFFFFFFFu, 0xFFFFFFFFFFFFFFC0ull, AccessType::kWrite},
      {0, 0, AccessType::kRead},
  };
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, StreamingSourceMatchesBulkRead) {
  const auto records = sample(1000);
  write_trace_file(path_, records);
  TraceFileSource src(path_);
  EXPECT_EQ(src.record_count(), records.size());
  for (const auto& want : records) {
    auto got = src.next();
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(src.next().has_value());
}

TEST_F(TraceIoTest, StreamingSourceReset) {
  write_trace_file(path_, sample(5));
  TraceFileSource src(path_);
  src.next();
  src.next();
  src.reset();
  size_t n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 5u);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/x.ctrc"), std::runtime_error);
  EXPECT_THROW(TraceFileSource("/nonexistent/x.ctrc"), std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicThrows) {
  std::ofstream(path_, std::ios::binary) << "NOTATRACEFILE___________";
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

/// Drops the last `bytes` bytes of the file at `path`.
void chop(const std::string& path, size_t bytes) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data.resize(data.size() - bytes);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;
}

TEST_F(TraceIoTest, TruncatedBodyThrows) {
  write_trace_file(path_, sample(10));
  chop(path_, 1);  // the last record loses its final varint byte
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

TEST_F(TraceIoTest, UnsupportedVersionThrows) {
  write_trace_file(path_, sample(1));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // version field
  f.put(99);
  f.close();
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

/// Writes a file with a valid version-`version` header declaring `count`
/// records, followed by `body` verbatim.
void write_raw(const std::string& path, u32 version, u64 count,
               const std::string& body) {
  std::string data = "CAMPSTRC";
  for (int i = 0; i < 4; ++i) data += static_cast<char>(version >> (8 * i));
  for (int i = 0; i < 8; ++i) data += static_cast<char>(count >> (8 * i));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data + body;
}

// --- malformed-input diagnostics -------------------------------------------

/// Runs `fn`, returning the std::runtime_error message it throws ("" if it
/// does not throw) so tests can pin the diagnostic text.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST_F(TraceIoTest, EmptyFileReportedAsEmptyNotBadMagic) {
  { std::ofstream out(path_, std::ios::binary); }
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("empty file"), std::string::npos) << msg;
  const std::string src_msg =
      thrown_message([&] { TraceFileSource src(path_); });
  EXPECT_NE(src_msg.find("empty file"), std::string::npos) << src_msg;
}

TEST_F(TraceIoTest, ShortHeaderReportedAsTruncatedHeader) {
  std::ofstream(path_, std::ios::binary) << "CAM";
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("truncated header"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, Version1IsRejected) {
  // The retired fixed-width format: one 16-byte record after the header.
  write_raw(path_, 1, 1, std::string(16, '\0'));
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("unsupported version 1"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, TruncatedBodyNamesTheFailingRecord) {
  write_trace_file(path_, sample(10));
  chop(path_, 1);  // the last record loses its final varint byte
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("record 10 of 10"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, CorruptFlagsNameTheFailingRecord) {
  // sample(3) encodes every record in 3 bytes: flags, gap, delta.
  write_trace_file(path_, sample(3));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(20 + 3);  // record 2's flags byte
  f.put(static_cast<char>(0xF0));
  f.close();
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("invalid flags"), std::string::npos) << msg;
  EXPECT_NE(msg.find("record 2 of 3"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, NegativeDeltaBelowAddressZeroNamesTheRecord) {
  // Record 1: flags 0x3 (write, negative delta), gap 0, delta 1 line from
  // address 0. Decoding by wrapping would yield 0xFFFFFFFFFFFFFFC0.
  write_raw(path_, 2, 1, std::string("\x03\x00\x01", 3));
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("leaves the address space"), std::string::npos) << msg;
  EXPECT_NE(msg.find("record 1 of 1"), std::string::npos) << msg;
  const std::string src_msg = thrown_message([&] {
    TraceFileSource src(path_);
    src.next();
  });
  EXPECT_NE(src_msg.find("record 1 of 1"), std::string::npos) << src_msg;
}

TEST_F(TraceIoTest, DeltaPastTheLastLineNamesTheRecord) {
  // Record 2 steps one line past line 2^58 - 1 (address 0xFFFFFFFFFFFFFFC0),
  // which a 64-bit address cannot hold.
  write_trace_file(path_, {{0, 0xFFFFFFFFFFFFFFC0ull, AccessType::kRead}});
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  write_raw(path_, 2, 2, data.substr(20) + std::string("\x00\x00\x01", 3));
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("leaves the address space"), std::string::npos) << msg;
  EXPECT_NE(msg.find("record 2 of 2"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, TrailingBytesAfterDeclaredCountThrow) {
  write_trace_file(path_, sample(3));
  std::ofstream(path_, std::ios::binary | std::ios::app) << '\x00';
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("trailing bytes"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, StreamingSourceNamesTheFailingRecord) {
  write_trace_file(path_, sample(4));
  chop(path_, 4);  // lose the last record and part of #3
  TraceFileSource src(path_);
  EXPECT_TRUE(src.next().has_value());
  EXPECT_TRUE(src.next().has_value());
  const std::string msg = thrown_message([&] { src.next(); });
  EXPECT_NE(msg.find("record 3 of 4"), std::string::npos) << msg;
}

// --- varint-delta encoding -------------------------------------------------

TEST_F(TraceIoTest, V2RoundTripSmall) {
  // Descending addresses: every delta after the first is negative.
  auto records = sample(10);
  std::reverse(records.begin(), records.end());
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, V2RoundTripEmpty) {
  write_trace_file(path_, {});
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  EXPECT_EQ(in.tellg(), 20) << "an empty trace is the bare header";
  TraceFileSource src(path_);
  EXPECT_EQ(src.record_count(), 0u);
  EXPECT_FALSE(src.next().has_value());
}

TEST_F(TraceIoTest, V2RoundTripLargeMixedDirections) {
  // Forward and backward jumps of varying magnitude.
  std::vector<TraceRecord> records;
  u64 x = 99;
  Addr addr = u64{1} << 33;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const i64 delta = static_cast<i64>((x >> 20) % 4096) - 2048;
    addr = static_cast<Addr>(static_cast<i64>(addr) + delta * 64);
    records.push_back({static_cast<u32>(x % 17), addr,
                       (x & 1) ? AccessType::kWrite : AccessType::kRead});
  }
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, V2StreamingSourceMatches) {
  const auto records = sample(500);
  write_trace_file(path_, records);
  TraceFileSource src(path_);
  EXPECT_EQ(src.record_count(), records.size());
  for (const auto& want : records) {
    auto got = src.next();
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(src.next().has_value());
  src.reset();
  size_t n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, records.size());
}

TEST_F(TraceIoTest, V2CompressesSequentialTraces) {
  std::vector<TraceRecord> records;
  for (size_t i = 0; i < 10000; ++i) {
    records.push_back({2, 0x1000 + 64 * i, AccessType::kRead});
  }
  write_trace_file(path_, records);
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = static_cast<size_t>(in.tellg());
  // Against the retired fixed-width layout (16 B per record).
  const size_t fixed_width_size = 20 + 16 * records.size();
  EXPECT_LT(size * 4, fixed_width_size)
      << "sequential traces must compress >= 4x";
}

TEST_F(TraceIoTest, V2RejectsUnalignedAddresses) {
  EXPECT_THROW(
      write_trace_file(path_, {{0, 0x1001, AccessType::kRead}}),
      std::runtime_error);
}

TEST_F(TraceIoTest, V2TruncatedBodyThrows) {
  write_trace_file(path_, sample(100));
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data.resize(data.size() / 2);
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << data;
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

TEST_F(TraceIoTest, V2CorruptFlagsThrow) {
  write_trace_file(path_, sample(2));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(20);  // first record's flags byte (after the 20-byte header)
  f.put(static_cast<char>(0xF0));
  f.close();
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

}  // namespace
}  // namespace camps::trace
