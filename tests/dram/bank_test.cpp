#include "dram/bank.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "dram/chip.hpp"

namespace simra::dram {
namespace {

/// Bank tests drive the FSM through a chip (which owns the context).
class BankTest : public ::testing::Test {
 protected:
  Chip chip_{VendorProfile::hynix_m(), 42};
  Bank& bank() { return chip_.bank(0); }
  std::size_t columns() const { return chip_.profile().geometry.columns; }

  BitVec random_row() {
    BitVec v(columns());
    v.randomize(chip_.rng());
    return v;
  }
};

TEST_F(BankTest, NormalActivateWriteReadPrecharge) {
  Bank& b = bank();
  EXPECT_FALSE(b.is_open());
  b.act(10, 0.0);
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.open_rows(), (std::vector<RowAddr>{10}));

  BitVec data = random_row();
  b.write(0, data, 20.0);
  EXPECT_EQ(b.read(0, columns(), 30.0), data);
  b.pre(50.0);
  b.act(11, 70.0);  // t2 = 20 ns >= tRP: normal.
  EXPECT_EQ(b.open_rows(), (std::vector<RowAddr>{11}));
  // Row 10 retained its data (t1 >= sense enable).
  EXPECT_EQ(b.backdoor_row(10), data);
}

TEST_F(BankTest, ReadOfClosedBankThrows) {
  EXPECT_THROW((void)bank().read(0, 8, 0.0), std::logic_error);
}

TEST_F(BankTest, WriteToClosedBankIgnoredAndCounted) {
  Bank& b = bank();
  BitVec data = random_row();
  b.write(0, data, 0.0);
  EXPECT_EQ(b.stats().ignored_commands, 1u);
}

TEST_F(BankTest, TimestampsMustBeMonotonic) {
  Bank& b = bank();
  b.act(0, 100.0);
  EXPECT_THROW(b.pre(50.0), std::invalid_argument);
}

TEST_F(BankTest, SimultaneousActivationOpensDecoderGroup) {
  Bank& b = bank();
  // Initialize all-zeros so the charge share resolves to zeros.
  for (RowAddr r : chip_.layout().activation_group(0, 7))
    b.backdoor_row(r).fill(false);
  b.act(0, 0.0);
  b.pre(3.0);
  b.act(7, 6.0);  // t2 = 3 ns: interrupted precharge.
  EXPECT_EQ(b.open_rows(), (std::vector<RowAddr>{0, 1, 6, 7}));
  EXPECT_EQ(b.stats().simultaneous_activations, 1u);
}

TEST_F(BankTest, SimultaneousChargeShareWritesMajorityBack) {
  Bank& b = bank();
  BitVec pattern = random_row();
  for (RowAddr r : chip_.layout().activation_group(0, 7))
    b.backdoor_row(r) = pattern;
  b.act(0, 0.0);
  b.pre(1.5);
  b.act(7, 4.5);
  // Unanimous rows: the resolved buffer equals the stored pattern.
  EXPECT_EQ(b.row_buffer(), pattern);
  for (RowAddr r : b.open_rows()) EXPECT_EQ(b.backdoor_row(r), pattern);
}

TEST_F(BankTest, WriteOverdriveReachesAllOpenRows) {
  Bank& b = bank();
  BitVec init(columns(), false);
  for (RowAddr r : chip_.layout().activation_group(0, 7))
    b.backdoor_row(r) = init;
  b.act(0, 0.0);
  b.pre(3.0);
  b.act(7, 6.0);
  BitVec data = random_row();
  b.write(0, data, 30.0);
  for (RowAddr r : b.open_rows()) {
    // At (3, 3) the overdrive is ~99.99 % reliable per cell.
    EXPECT_GT(b.backdoor_row(r).matches(data), columns() * 99 / 100);
  }
}

TEST_F(BankTest, ConsecutiveActivationPerformsRowClone) {
  Bank& b = bank();
  BitVec source = random_row();
  b.act(100, 0.0);
  b.write(0, source, 20.0);
  b.pre(60.0);       // t1 = 60 >= tRAS: SA latched.
  b.act(101, 66.0);  // t2 = 6 ns: consecutive activation.
  EXPECT_EQ(b.stats().consecutive_activations, 1u);
  EXPECT_EQ(b.open_rows(), (std::vector<RowAddr>{101}));
  EXPECT_GT(b.backdoor_row(101).matches(source), columns() * 99 / 100);
}

TEST_F(BankTest, EarlyPrechargeLeavesRowFrac) {
  Bank& b = bank();
  b.act(42, 0.0);
  b.pre(1.5);        // long before sense enable.
  b.act(300, 100.0); // completes the precharge.
  EXPECT_EQ(b.backdoor_row_state(42), RowState::kFrac);
  EXPECT_GE(b.stats().frac_events, 1u);
}

TEST_F(BankTest, ActivatingFracRowRestoresResolvedData) {
  Bank& b = bank();
  b.act(42, 0.0);
  b.pre(1.5);
  b.act(300, 100.0);
  b.pre(200.0);
  b.act(42, 300.0);  // sense the VDD/2 row.
  EXPECT_EQ(b.backdoor_row_state(42), RowState::kValid);
  EXPECT_EQ(b.backdoor_row(42), b.row_buffer());
}

TEST_F(BankTest, ActToOpenBankIgnored) {
  Bank& b = bank();
  b.act(1, 0.0);
  b.act(2, 10.0);
  EXPECT_EQ(b.open_rows(), (std::vector<RowAddr>{1}));
  EXPECT_EQ(b.stats().ignored_commands, 1u);
}

TEST_F(BankTest, CrossSubarrayApaDoesNotMergeGroups) {
  Bank& b = bank();
  const auto rows = static_cast<RowAddr>(chip_.layout().rows());
  b.act(0, 0.0);
  b.pre(3.0);
  b.act(rows + 5, 6.0);  // second ACT in the next subarray.
  EXPECT_EQ(b.open_rows(), (std::vector<RowAddr>{rows + 5}));
  EXPECT_EQ(b.stats().simultaneous_activations, 0u);
}

TEST_F(BankTest, RefreshRequiresPrechargedBank) {
  Bank& b = bank();
  b.act(0, 0.0);
  b.refresh(10.0);
  EXPECT_EQ(b.stats().refreshes, 0u);
  EXPECT_GE(b.stats().ignored_commands, 1u);
  b.pre(50.0);
  b.refresh(100.0);  // precharge had settled.
  EXPECT_EQ(b.stats().refreshes, 1u);
}

TEST_F(BankTest, RowAddressingHelpers) {
  Bank& b = bank();
  const auto rows = static_cast<RowAddr>(chip_.layout().rows());
  EXPECT_EQ(b.subarray_of(rows + 3), 1u);
  EXPECT_EQ(b.local_of(rows + 3), 3u);
  EXPECT_EQ(b.global_of(1, 3), rows + 3);
  EXPECT_THROW(b.act(static_cast<RowAddr>(
                         chip_.profile().geometry.rows_per_bank),
                     0.0),
               std::out_of_range);
}

TEST_F(BankTest, ConsecutiveWithShortT1FracsTheSource) {
  // PRE long before sense enable, then a consecutive ACT: the source row
  // was never restored, so it is left at ~VDD/2 and the destination opens
  // with its own data (no copy happened).
  Bank& b = bank();
  const BitVec source = random_row();
  const BitVec dest = random_row();
  b.backdoor_row(100) = source;
  b.backdoor_row(101) = dest;
  b.act(100, 0.0);
  b.pre(1.5);       // t1 = 1.5 < sense enable.
  b.act(101, 7.5);  // t2 = 6: consecutive regime.
  EXPECT_EQ(b.backdoor_row_state(100), RowState::kFrac);
  EXPECT_EQ(b.row_buffer(), dest);
}

TEST_F(BankTest, IntermediateT1BlendsCopyAndChargeShare) {
  // t1 = 6 ns: most sense amplifiers latched the source, a small fraction
  // resolves from the destinations' charge instead (Obs. 15's mechanism).
  Bank& b = bank();
  const BitVec source = random_row();
  const BitVec anti = ~source;
  const auto group = chip_.layout().activation_group(0, 7);
  for (RowAddr r : group) b.backdoor_row(r) = anti;
  b.backdoor_row(0) = source;
  b.act(0, 0.0);
  b.pre(6.0);       // partial SA latch.
  b.act(7, 9.0);    // t2 = 3: simultaneous.
  const std::size_t copied = b.row_buffer().matches(source);
  EXPECT_GT(copied, columns() * 90 / 100);  // mostly the source...
  EXPECT_LT(copied, columns());             // ...but not perfectly.
}

TEST_F(BankTest, WriteMasksAreCachedPerOpenSession) {
  // Two writes in one open session must see the same per-cell overdrive
  // mask (it is a persistent property, computed lazily once).
  Bank& b = bank();
  const BitVec zeros(columns(), false);
  for (RowAddr r : chip_.layout().activation_group(0, 7))
    b.backdoor_row(r) = zeros;
  b.act(0, 0.0);
  b.pre(3.0);
  b.act(7, 6.0);
  const BitVec first = random_row();
  b.write(0, first, 30.0);
  const BitVec after_first = b.backdoor_row(1);
  b.write(0, first, 60.0);  // identical data, second write.
  EXPECT_EQ(b.backdoor_row(1), after_first);
}

TEST(BankSamsung, GatesViolatedTimings) {
  Chip chip(VendorProfile::samsung(), 7);
  Bank& b = chip.bank(0);
  BitVec marker(chip.profile().geometry.columns);
  marker.fill_byte(0x5A);
  b.backdoor_row(0) = marker;
  b.act(0, 0.0);
  b.pre(3.0);
  b.act(7, 6.0);  // violated t2: the chip drops the PRE/ACT pair.
  EXPECT_EQ(b.open_rows(), (std::vector<RowAddr>{0}));
  EXPECT_EQ(b.stats().gated_commands, 1u);
  EXPECT_EQ(b.stats().simultaneous_activations, 0u);
  EXPECT_EQ(b.backdoor_row(0), marker);
}

/// hash_combine chain over the cell words of `rows`.
std::uint64_t cells_digest(const Bank& b, std::span<const RowAddr> rows) {
  std::uint64_t h = 0;
  for (RowAddr r : rows)
    for (std::uint64_t w : b.backdoor_row(r).words()) h = hash_combine(h, w);
  return h;
}

// Cell contents after a full WR and a partial WR to one open row and to
// a four-row simultaneously open group, recorded before a full WR to one
// open row assigned the row buffer straight into the cells.
TEST_F(BankTest, WriteShapesKeepTheirRecordedCells) {
  Bank& b = bank();
  Rng rng(71);
  const auto random_bits = [&](std::size_t n) {
    BitVec v(n);
    v.randomize(rng);
    return v;
  };
  const std::vector<RowAddr> group = chip_.layout().activation_group(0, 7);
  for (RowAddr r : group) b.backdoor_row(r) = random_bits(columns());
  b.backdoor_row(100) = random_bits(columns());
  const RowAddr single[] = {100};

  b.act(100, 0.0);
  b.write(0, random_bits(columns()), 20.0);
  EXPECT_EQ(cells_digest(b, single), 0xe291792e6230e2c7ull);
  b.write(37, random_bits(1000), 25.0);
  EXPECT_EQ(cells_digest(b, single), 0x593e15b8a2bf6e46ull);
  b.pre(60.0);

  b.act(0, 200.0);
  b.pre(203.0);
  b.act(7, 206.0);  // t1 = t2 = 3 ns: rows {0, 1, 6, 7} open.
  ASSERT_EQ(b.open_row_count(), 4u);
  b.write(0, random_bits(columns()), 230.0);
  EXPECT_EQ(cells_digest(b, group), 0xc06ef88b2dfd8be5ull);
  b.write(129, random_bits(700), 235.0);
  EXPECT_EQ(cells_digest(b, group), 0x735853b01f83501full);
  b.pre(270.0);
}

}  // namespace
}  // namespace simra::dram
