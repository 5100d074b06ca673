// Property/fuzz tests: random command sequences with random (often
// violated) timings must never crash the bank FSM, and its externally
// visible invariants must hold after every command.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dram/chip.hpp"

namespace simra::dram {
namespace {

class BankFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BankFuzzTest, RandomCommandSequencesPreserveInvariants) {
  Chip chip(GetParam() % 2 == 0 ? VendorProfile::hynix_m()
                                : VendorProfile::micron_e(),
            GetParam());
  Bank& bank = chip.bank(0);
  Rng rng(hash_combine(GetParam(), 0xf022));
  const std::size_t columns = chip.profile().geometry.columns;
  const auto rows_per_bank =
      static_cast<RowAddr>(chip.profile().geometry.rows_per_bank);

  double t = 0.0;
  BitVec data(columns);
  for (int step = 0; step < 400; ++step) {
    // Advance time by a random multiple of the 1.5 ns slot; frequently
    // pick the violating sub-tRP delays that trigger the PUD regimes.
    const double delays[] = {1.5, 3.0, 4.5, 6.0, 13.5, 36.0, 100.0};
    t += delays[rng.below(std::size(delays))];

    switch (rng.below(6)) {
      case 0:
      case 1: {  // ACT (weighted: most interesting command).
        // Bias toward a small row range so APA pairs hit one subarray.
        const RowAddr row =
            rng.chance(0.7) ? static_cast<RowAddr>(rng.below(512))
                            : static_cast<RowAddr>(rng.below(rows_per_bank));
        bank.act(row, t);
        break;
      }
      case 2:
        bank.pre(t);
        break;
      case 3: {
        data.randomize(rng);
        bank.write(0, data, t);
        break;
      }
      case 4: {
        if (bank.is_open()) {
          const BitVec readback = bank.read(0, 64, t);
          ASSERT_EQ(readback.size(), 64u);
        }
        break;
      }
      case 5:
        bank.refresh(t);
        break;
    }

    // Invariants after every command:
    const auto open = bank.open_rows();
    ASSERT_EQ(bank.open_row_count(), open.size());
    if (!bank.is_open()) {
      ASSERT_TRUE(open.empty());
    } else {
      ASSERT_FALSE(open.empty());
      ASSERT_LE(open.size(), 32u);
      // All open rows live in one subarray.
      const SubarrayId sa = bank.subarray_of(open.front());
      for (RowAddr r : open) {
        ASSERT_LT(r, rows_per_bank);
        ASSERT_EQ(bank.subarray_of(r), sa);
      }
      ASSERT_EQ(bank.row_buffer().size(), columns);
    }
  }

  // Statistics are consistent with what we issued.
  const CommandStats& stats = bank.stats();
  ASSERT_GT(stats.acts + stats.pres + stats.writes + stats.reads +
                stats.refreshes,
            0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BankChainedApa, ThirdActGrowsTheLatchedSet) {
  // A third ACT before the precharge settles latches yet another address:
  // the open set is the cartesian product of all three (the mechanism the
  // concurrent work [128] uses to open up to 48 rows).
  Chip chip(VendorProfile::hynix_m(), 3);
  Bank& bank = chip.bank(0);
  BitVec zeros(chip.profile().geometry.columns, false);
  for (RowAddr r = 0; r < 8; ++r) bank.backdoor_row(r) = zeros;

  bank.act(0, 0.0);
  bank.pre(3.0);
  bank.act(1, 6.0);  // t2 = 3: open {0, 1}.
  ASSERT_EQ(bank.open_rows().size(), 2u);
  bank.pre(9.0);
  bank.act(2, 12.0);  // latches now hold A:{0,1} B:{0,1} -> 4 rows.
  EXPECT_EQ(bank.open_rows(), (std::vector<RowAddr>{0, 1, 2, 3}));
  EXPECT_EQ(bank.stats().simultaneous_activations, 2u);
}

}  // namespace
}  // namespace simra::dram
