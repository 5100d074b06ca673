#include "pud/engine.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "pud/patterns.hpp"
#include "pud/program_builders.hpp"
#include "pud/row_group.hpp"
#include "support/same_program.hpp"

namespace simra::pud {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  dram::Chip chip_{dram::VendorProfile::hynix_m(), 11};
  Engine engine_{&chip_};
  Rng rng_{13};

  std::size_t columns() const { return chip_.profile().geometry.columns; }
  BitVec random_row() {
    BitVec v(columns());
    v.randomize(rng_);
    return v;
  }
};

TEST_F(EngineTest, WriteReadRoundtrip) {
  const BitVec data = random_row();
  engine_.write_row(0, 17, data);
  EXPECT_EQ(engine_.read_row(0, 17), data);
}

TEST_F(EngineTest, FracDestroysRowContent) {
  const BitVec data = random_row();
  engine_.write_row(0, 5, data);
  engine_.frac(0, 5);
  // Reading the Frac'd row senses SA offsets, not the old data.
  const BitVec sensed = engine_.read_row(0, 5);
  EXPECT_GT(sensed.hamming_distance(data), columns() / 4);
  // The row is restored by the read and stays stable afterwards.
  EXPECT_EQ(engine_.read_row(0, 5), sensed);
}

TEST_F(EngineTest, RowCloneCopiesWithinSubarray) {
  const BitVec src = random_row();
  const BitVec dst_init = ~src;
  engine_.write_row(0, 20, src);
  engine_.write_row(0, 40, dst_init);
  engine_.rowclone(0, 20, 40);
  EXPECT_GT(engine_.read_row(0, 40).matches(src), columns() * 99 / 100);
  // Source is intact.
  EXPECT_EQ(engine_.read_row(0, 20), src);
}

TEST_F(EngineTest, RowCloneAcrossSubarraysFails) {
  const auto rows = static_cast<dram::RowAddr>(engine_.layout().rows());
  const BitVec src = random_row();
  const BitVec dst_init = ~src;
  engine_.write_row(0, 1, src);
  engine_.write_row(0, rows + 1, dst_init);
  engine_.rowclone(0, 1, rows + 1);
  // Different subarray: no shared bitlines, nothing copied.
  EXPECT_EQ(engine_.read_row(0, rows + 1), dst_init);
}

TEST_F(EngineTest, MultiRowCopyReachesAllDestinations) {
  const RowGroup group = sample_group(engine_.layout(), 8, rng_);
  const BitVec src = random_row();
  for (dram::RowAddr r : group.rows)
    engine_.write_row(0, engine_.global_of(2, r), ~src);
  engine_.write_row(0, engine_.global_of(2, group.row_first), src);

  engine_.multi_row_copy(0, 2, group);
  for (dram::RowAddr r : group.rows) {
    EXPECT_GT(engine_.read_row(0, engine_.global_of(2, r)).matches(src),
              columns() * 99 / 100)
        << "row " << r;
  }
}

TEST_F(EngineTest, MajxComputesMajorityWithReplication) {
  const RowGroup group = sample_group(engine_.layout(), 32, rng_);
  MajxConfig config;
  config.x = 3;
  config.operands = make_pattern_rows(dram::DataPattern::kRandom, columns(),
                                      3, rng_);
  std::vector<const BitVec*> refs;
  for (const BitVec& op : config.operands) refs.push_back(&op);
  const BitVec expected = BitVec::majority(refs);

  const BitVec result = engine_.majx(0, 1, group, config);
  // MAJ3 @ 32-row activation: ~99 % of bits correct.
  EXPECT_GT(result.matches(expected), columns() * 95 / 100);
}

TEST_F(EngineTest, MajxValidatesArguments) {
  const RowGroup small = sample_group(engine_.layout(), 4, rng_);
  MajxConfig config;
  config.x = 4;  // even.
  config.operands.resize(4, BitVec(columns()));
  EXPECT_THROW((void)engine_.majx(0, 1, small, config), std::invalid_argument);
  config.x = 5;
  config.operands.resize(3, BitVec(columns()));
  EXPECT_THROW((void)engine_.majx(0, 1, small, config), std::invalid_argument);
  config.operands.resize(5, BitVec(columns()));
  // group of 4 < x of 5.
  EXPECT_THROW((void)engine_.majx(0, 1, small, config), std::invalid_argument);
}

TEST_F(EngineTest, ApaThenWriteUpdatesWholeGroup) {
  const RowGroup group = sample_group(engine_.layout(), 4, rng_);
  const BitVec init(columns(), false);
  for (dram::RowAddr r : group.rows)
    engine_.write_row(0, engine_.global_of(1, r), init);
  const BitVec written = random_row();
  engine_.apa_then_write(0, 1, group, written, ApaTimings::best_for_smra());
  for (dram::RowAddr r : group.rows) {
    EXPECT_GT(engine_.read_row(0, engine_.global_of(1, r)).matches(written),
              columns() * 99 / 100);
  }
}

TEST_F(EngineTest, ApaReturnsRowBufferAndPrecharges) {
  const RowGroup group = sample_group(engine_.layout(), 2, rng_);
  const BitVec pattern = random_row();
  for (dram::RowAddr r : group.rows)
    engine_.write_row(0, engine_.global_of(1, r), pattern);
  const BitVec buffer =
      engine_.apa(0, 1, group, ApaTimings::best_for_majx());
  EXPECT_EQ(buffer, pattern);  // unanimous rows resolve to their value.
  EXPECT_FALSE(chip_.bank(0).is_open());
}

TEST_F(EngineTest, LatencyAccessorsAreOrderedSensibly) {
  EXPECT_GT(engine_.rowclone_latency().value, 0.0);
  EXPECT_GT(engine_.multi_row_copy_latency().value,
            engine_.majx_apa_latency().value);
  EXPECT_LT(engine_.frac_latency().value, engine_.rowclone_latency().value);
  EXPECT_GT(engine_.write_row_latency().value, 0.0);
}

TEST_F(EngineTest, AmbitStyleAndOr) {
  const RowGroup group = sample_group(engine_.layout(), 32, rng_);
  const BitVec a = random_row();
  const BitVec b = random_row();
  const BitVec and_result = engine_.in_dram_and(0, 1, group, a, b);
  const BitVec or_result = engine_.in_dram_or(0, 1, group, a, b);
  EXPECT_GT(and_result.matches(a & b), columns() * 95 / 100);
  EXPECT_GT(or_result.matches(a | b), columns() * 95 / 100);
}

TEST_F(EngineTest, MicronEmulatedNeutralRows) {
  // Frac-less vendor: MAJX still works via all-0s/all-1s neutral rows.
  dram::Chip micron(dram::VendorProfile::micron_e(), 3);
  Engine engine(&micron);
  Rng rng(5);
  const std::size_t cols = micron.profile().geometry.columns;
  const RowGroup group = sample_group(engine.layout(), 32, rng);
  MajxConfig config;
  config.x = 5;
  config.operands = make_pattern_rows(dram::DataPattern::k00FF, cols, 5, rng);
  std::vector<const BitVec*> refs;
  for (const BitVec& op : config.operands) refs.push_back(&op);
  const BitVec expected = BitVec::majority(refs);
  const BitVec result = engine.majx(0, 1, group, config);
  EXPECT_GT(result.matches(expected), cols * 80 / 100);
}

// The engine re-points one built write_row, read_row and frac program per
// bank instead of rebuilding it per row, which is only sound while the
// builders' slots, extent, name and intents depend on neither the row
// (here an even and an odd row in different subarrays) nor the payload.
TEST(RowPrograms, RepointedBuildEqualsFreshBuild) {
  using simra::testing::expect_same_program;
  std::vector<dram::VendorProfile> profiles = dram::VendorProfile::all_tested();
  profiles.push_back(dram::VendorProfile::samsung());
  Rng rng{29};
  for (const dram::VendorProfile& profile : profiles) {
    SCOPED_TRACE(profile.manufacturer + " " + profile.die_revision);
    const std::size_t columns = profile.geometry.columns;
    const dram::RowAddr r1 = 16;
    const dram::RowAddr r2 =
        static_cast<dram::RowAddr>(3 * profile.geometry.rows_per_subarray + 5);
    BitVec d1(columns);
    BitVec d2(columns);
    d1.randomize(rng);
    d2.randomize(rng);
    for (const dram::BankId bank : {dram::BankId{0}, dram::BankId{3}}) {
      SCOPED_TRACE(static_cast<int>(bank));
      expect_same_program(
          programs::write_row(profile, bank, r1, d1).repoint(r2, &d2),
          programs::write_row(profile, bank, r2, d2));
      for (const std::size_t nbits : {std::size_t{64}, columns}) {
        expect_same_program(
            programs::read_row(profile, bank, r1, nbits).repoint(r2),
            programs::read_row(profile, bank, r2, nbits));
      }
      expect_same_program(programs::frac(profile, bank, r1).repoint(r2),
                          programs::frac(profile, bank, r2));
    }
  }
}

}  // namespace
}  // namespace simra::pud
