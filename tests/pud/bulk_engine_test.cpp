#include "pud/bulk_engine.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "pud/patterns.hpp"

namespace simra::pud {
namespace {

class BulkEngineTest : public ::testing::Test {
 protected:
  dram::Chip chip_{dram::VendorProfile::hynix_m(), 91};
  Engine engine_{&chip_};
  BulkEngine bulk_{&engine_};
  Rng rng_{92};

  std::size_t columns() const { return chip_.profile().geometry.columns; }
};

TEST_F(BulkEngineTest, PipelinedMajxMatchesPerBankResults) {
  const std::vector<dram::BankId> banks{0, 1, 2, 3};
  const RowGroup group = sample_group(engine_.layout(), 32, rng_);
  MajxConfig config;
  config.x = 3;
  config.operands =
      make_pattern_rows(dram::DataPattern::kRandom, columns(), 3, rng_);
  std::vector<const BitVec*> refs;
  for (const BitVec& op : config.operands) refs.push_back(&op);
  const BitVec expected = BitVec::majority(refs);

  bulk_.stage_majx_operands(banks, 1, group, config);
  const auto result = bulk_.majx_pipelined(banks, 1, group, config);

  ASSERT_EQ(result.results.size(), banks.size());
  for (std::size_t i = 0; i < banks.size(); ++i) {
    EXPECT_GT(result.results[i].matches(expected), columns() * 95 / 100)
        << "bank " << i;
  }
  // Every bank performed exactly one simultaneous activation.
  for (dram::BankId b : banks)
    EXPECT_EQ(chip_.bank(b).stats().simultaneous_activations, 1u);
}

TEST_F(BulkEngineTest, PipeliningBeatsSerialExecution) {
  const std::vector<dram::BankId> banks{0, 1, 2, 3, 4, 5, 6, 7};
  const RowGroup group = sample_group(engine_.layout(), 8, rng_);
  const auto result = bulk_.multi_row_copy_pipelined(banks, 1, group);
  EXPECT_GT(result.speedup(), 3.0);
  EXPECT_LT(result.duration_ns, result.serial_duration_ns);
}

TEST_F(BulkEngineTest, SingleBankDegeneratesGracefully) {
  const std::vector<dram::BankId> banks{5};
  const RowGroup group = sample_group(engine_.layout(), 4, rng_);
  MajxConfig config;
  config.x = 3;
  config.operands =
      make_pattern_rows(dram::DataPattern::k00FF, columns(), 3, rng_);
  bulk_.stage_majx_operands(banks, 2, group, config);
  const auto result = bulk_.majx_pipelined(banks, 2, group, config);
  ASSERT_EQ(result.results.size(), 1u);
  EXPECT_GE(result.speedup(), 0.5);
}

TEST_F(BulkEngineTest, RejectsEmptyBankList) {
  const RowGroup group = sample_group(engine_.layout(), 4, rng_);
  MajxConfig config;
  config.x = 3;
  config.operands.resize(3, BitVec(columns()));
  EXPECT_THROW((void)bulk_.majx_pipelined({}, 1, group, config),
               std::invalid_argument);
}

TEST_F(BulkEngineTest, StageValidatesOperands) {
  const std::vector<dram::BankId> banks{0};
  const RowGroup group = sample_group(engine_.layout(), 8, rng_);
  MajxConfig config;
  config.x = 5;
  config.operands.resize(3, BitVec(columns()));
  EXPECT_THROW(bulk_.stage_majx_operands(banks, 1, group, config),
               std::invalid_argument);
  config.x = 4;  // even.
  config.operands.resize(4, BitVec(columns()));
  EXPECT_THROW(bulk_.stage_majx_operands(banks, 1, group, config),
               std::invalid_argument);
  const RowGroup small = sample_group(engine_.layout(), 4, rng_);
  config.x = 5;  // group of 4 < x of 5.
  config.operands.resize(5, BitVec(columns()));
  EXPECT_THROW(bulk_.stage_majx_operands(banks, 1, small, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace simra::pud
