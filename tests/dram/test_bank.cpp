#include "dram/bank.hpp"

#include <gtest/gtest.h>
#include <optional>
#include <ostream>

namespace camps::dram {
namespace {

class BankTest : public ::testing::Test {
 protected:
  TimingParams t_ = default_timing();
  obs::TraceRecorder trace_;  // disabled
  Bank bank_{t_, trace_, 0};
};

TEST_F(BankTest, StartsPrecharged) {
  EXPECT_EQ(bank_.state(0), BankState::kPrecharged);
  EXPECT_FALSE(bank_.open_row(0).has_value());
}

TEST_F(BankTest, ClassifyEmptyWhenPrecharged) {
  EXPECT_EQ(bank_.classify(0, 5), RowBufferOutcome::kEmpty);
}

TEST_F(BankTest, ActivateOpensRowAfterTrcd) {
  bank_.activate(0, 7);
  EXPECT_EQ(bank_.state(0), BankState::kActivating);
  EXPECT_EQ(bank_.state(t_.tRCD - 1), BankState::kActivating);
  EXPECT_EQ(bank_.state(t_.tRCD), BankState::kActive);
  EXPECT_EQ(bank_.open_row(0), std::make_optional<RowId>(7));
}

TEST_F(BankTest, ClassifyHitAndConflict) {
  bank_.activate(0, 7);
  EXPECT_EQ(bank_.classify(t_.tRCD, 7), RowBufferOutcome::kHit);
  EXPECT_EQ(bank_.classify(t_.tRCD, 8), RowBufferOutcome::kConflict);
}

TEST_F(BankTest, EarliestColumnRespectsTrcd) {
  bank_.activate(0, 7);
  EXPECT_EQ(bank_.earliest_column(0), t_.tRCD);
  EXPECT_EQ(bank_.earliest_column(t_.tRCD + 3), t_.tRCD + 3);
}

TEST_F(BankTest, ReadLatencyIsClPlusBurst) {
  bank_.activate(0, 7);
  const u64 issue = t_.tRCD;
  EXPECT_EQ(bank_.read(issue), issue + t_.tCL + t_.tBURST);
}

TEST_F(BankTest, BackToBackReadsSpacedByTccd) {
  bank_.activate(0, 7);
  const u64 first = t_.tRCD;
  bank_.read(first);
  EXPECT_EQ(bank_.earliest_column(first), first + t_.tCCD);
  bank_.read(first + t_.tCCD);
}

TEST_F(BankTest, EarliestPrechargeHonorsTras) {
  bank_.activate(0, 7);
  EXPECT_EQ(bank_.earliest_precharge(0), t_.tRAS);
}

TEST_F(BankTest, EarliestPrechargeHonorsReadToPre) {
  bank_.activate(0, 7);
  const u64 rd = t_.tRAS;  // read late so tRTP dominates tRAS
  bank_.read(rd);
  EXPECT_EQ(bank_.earliest_precharge(rd), rd + t_.tRTP);
}

TEST_F(BankTest, EarliestPrechargeHonorsWriteRecovery) {
  bank_.activate(0, 7);
  const u64 wr = t_.tRCD;
  const u64 data_end = bank_.write(wr);
  EXPECT_EQ(data_end, wr + t_.tWL + t_.tBURST);
  const u64 want = data_end + t_.tWR;
  EXPECT_EQ(bank_.earliest_precharge(want - 1), want);
}

TEST_F(BankTest, PrechargeClosesRowAfterTrp) {
  bank_.activate(0, 7);
  const u64 pre = bank_.earliest_precharge(t_.tRCD);
  bank_.precharge(pre);
  EXPECT_EQ(bank_.state(pre), BankState::kPrecharging);
  EXPECT_EQ(bank_.state(pre + t_.tRP), BankState::kPrecharged);
  EXPECT_FALSE(bank_.open_row(pre + t_.tRP).has_value());
}

TEST_F(BankTest, ActivateAfterPrechargeWaitsTrp) {
  bank_.activate(0, 7);
  const u64 pre = bank_.earliest_precharge(0);
  bank_.precharge(pre);
  EXPECT_EQ(bank_.earliest_activate(pre), pre + t_.tRP);
  bank_.activate(pre + t_.tRP, 9);
  EXPECT_EQ(bank_.open_row(pre + t_.tRP), std::make_optional<RowId>(9));
}

TEST_F(BankTest, EarliestActivateNeverWhileActive) {
  bank_.activate(0, 7);
  EXPECT_EQ(bank_.earliest_activate(t_.tRCD), kTickNever);
}

TEST_F(BankTest, EarliestColumnNeverWhilePrecharged) {
  EXPECT_EQ(bank_.earliest_column(0), kTickNever);
}

TEST_F(BankTest, RowFetchTakesClPlusRowFetchCycles) {
  bank_.activate(0, 7);
  const u64 start = t_.tRCD;
  EXPECT_EQ(bank_.fetch_row(start), start + t_.tCL + t_.tROWFETCH);
}

TEST_F(BankTest, RowFetchGatesPrecharge) {
  bank_.activate(0, 7);
  const u64 start = t_.tRAS;  // fetch late so its gate dominates tRAS
  const u64 done = bank_.fetch_row(start);
  EXPECT_EQ(bank_.earliest_precharge(start), done);
}

TEST_F(BankTest, RefreshBlocksUntilTrfc) {
  bank_.refresh(0);
  EXPECT_EQ(bank_.state(0), BankState::kRefreshing);
  EXPECT_EQ(bank_.state(t_.tRFC - 1), BankState::kRefreshing);
  EXPECT_EQ(bank_.state(t_.tRFC), BankState::kPrecharged);
  EXPECT_EQ(bank_.earliest_activate(0), t_.tRFC);
}

TEST_F(BankTest, CountsCommands) {
  bank_.activate(0, 1);
  bank_.read(t_.tRCD);
  bank_.write(t_.tRCD + t_.tCCD);
  bank_.fetch_row(t_.tRCD + 2 * t_.tCCD);
  const u64 pre = bank_.earliest_precharge(t_.tRCD + 2 * t_.tCCD);
  bank_.precharge(pre);
  EXPECT_EQ(bank_.activate_count(), 1u);
  EXPECT_EQ(bank_.read_count(), 1u);
  EXPECT_EQ(bank_.write_count(), 1u);
  EXPECT_EQ(bank_.row_fetch_count(), 1u);
  EXPECT_EQ(bank_.precharge_count(), 1u);
}

TEST_F(BankTest, FullCycleTwice) {
  // Two complete ACT-RD-PRE cycles; state machine must return to start.
  u64 now = 0;
  for (int i = 0; i < 2; ++i) {
    now = bank_.earliest_activate(now);
    ASSERT_NE(now, kTickNever);
    bank_.activate(now, static_cast<RowId>(i));
    now = bank_.earliest_column(now);
    bank_.read(now);
    now = bank_.earliest_precharge(now);
    bank_.precharge(now);
    now += t_.tRP;
  }
  EXPECT_EQ(bank_.activate_count(), 2u);
  EXPECT_EQ(bank_.state(now), BankState::kPrecharged);
}

TEST_F(BankTest, RandomLegalCommandFuzz) {
  // Drive the bank with thousands of randomly chosen commands, always at
  // the earliest legal cycle reported by the bank itself. The always-on
  // CAMPS_ASSERTs inside the command methods are the oracle: any
  // inconsistency between the earliest_* queries and command legality
  // aborts the test.
  u64 x = 424242;
  u64 cycle = 0;
  int issued = 0;
  for (int step = 0; step < 5000; ++step) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const int choice = static_cast<int>((x >> 33) % 5);
    switch (choice) {
      case 0: {  // activate
        const u64 when = bank_.earliest_activate(cycle);
        if (when == kTickNever) break;
        bank_.activate(when, (x >> 40) % 64);
        cycle = when;
        ++issued;
        break;
      }
      case 1: {  // read
        const u64 when = bank_.earliest_column(cycle);
        if (when == kTickNever) break;
        bank_.read(when);
        cycle = when;
        ++issued;
        break;
      }
      case 2: {  // write
        const u64 when = bank_.earliest_column(cycle);
        if (when == kTickNever) break;
        bank_.write(when);
        cycle = when;
        ++issued;
        break;
      }
      case 3: {  // row fetch
        const u64 when = bank_.earliest_column(cycle);
        if (when == kTickNever) break;
        bank_.fetch_row(when);
        cycle = when;
        ++issued;
        break;
      }
      case 4: {  // precharge
        const u64 when = bank_.earliest_precharge(cycle);
        if (when == kTickNever) break;
        bank_.precharge(when);
        cycle = when;
        ++issued;
        break;
      }
    }
    // Let time drift forward occasionally so transients settle.
    if ((x & 7) == 0) cycle += (x >> 50) % 40;
  }
  EXPECT_GT(issued, 2000) << "fuzzer must actually exercise the machine";
  EXPECT_EQ(bank_.activate_count(), bank_.precharge_count() +
                                        (bank_.open_row(cycle) ? 1u : 0u))
      << "every completed row lifetime pairs ACT with PRE";
}

// Property sweep: for a spread of timing configurations, the
// earliest_* queries must themselves be legal issue times.
struct TimingCase {
  u64 trcd, trp, tcl, tras;
};

// Names each ctest after its timings ("tRCD11_tRP11_tCL11_tRAS28") instead
// of the struct's raw bytes.
void PrintTo(const TimingCase& c, std::ostream* os) {
  *os << "tRCD" << c.trcd << "_tRP" << c.trp << "_tCL" << c.tcl << "_tRAS"
      << c.tras;
}

class BankTimingSweep : public ::testing::TestWithParam<TimingCase> {};

TEST_P(BankTimingSweep, EarliestQueriesAreLegal) {
  const auto tc = GetParam();
  TimingParams t = default_timing();
  t.tRCD = tc.trcd;
  t.tRP = tc.trp;
  t.tCL = tc.tcl;
  t.tRAS = tc.tras;
  ASSERT_TRUE(t.valid());
  obs::TraceRecorder trace;  // disabled
  Bank bank(t, trace, 0);

  u64 now = 5;
  const u64 act = bank.earliest_activate(now);
  bank.activate(act, 3);
  const u64 col = bank.earliest_column(act);
  EXPECT_GE(col, act + t.tRCD);
  bank.read(col);
  const u64 pre = bank.earliest_precharge(col);
  EXPECT_GE(pre, act + t.tRAS);
  bank.precharge(pre);
  const u64 act2 = bank.earliest_activate(pre);
  EXPECT_EQ(act2, pre + t.tRP);
  bank.activate(act2, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Timings, BankTimingSweep,
    ::testing::Values(TimingCase{11, 11, 11, 28}, TimingCase{1, 1, 1, 1},
                      TimingCase{5, 20, 7, 40}, TimingCase{20, 5, 30, 60},
                      TimingCase{11, 11, 11, 11}));

}  // namespace
}  // namespace camps::dram
