// The batching-equivalence property (the serving layer's core claim):
// for an arbitrary mix of requests, executing the fused batch program is
// byte-identical — responses AND chip state — to executing each request's
// programs one at a time the way the serial engine would. Both paths run
// under SIMRA_VERIFY=strict, so the fused programs also have to get past
// the timing-verification gate with only declared violations.
//
// Determinism hinges on two invariants the suite pins:
//  * fusion never interleaves or reorders segments, so the chip's noise
//    stream and tie-break RNG are consumed in the same order;
//  * reliability-map group steering runs real trials on the chip, so both
//    shards warm every (bank, subarray) slot up front, before the paths
//    diverge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "charz/runner.hpp"
#include "serve/shard.hpp"
#include "serve/workload.hpp"
#include "support/scoped_env.hpp"

namespace simra::serve {
namespace {

using simra::testing::ScopedEnv;

constexpr unsigned kBanks = 2;

Shard::Config shard_config() {
  Shard::Config config;
  config.profile = dram::VendorProfile::hynix_m();
  config.seed = 0xfade;
  config.group_size = 4;
  return config;
}

WorkloadSpec property_spec() {
  WorkloadSpec spec;
  spec.columns = dram::VendorProfile::hynix_m().geometry.columns;
  spec.banks = kBanks;
  spec.rows = 32;
  spec.seed_sources = true;
  spec.read_back = true;
  // A dense mix: every op kind appears in a short stream.
  spec.weight_rowclone = 3;
  spec.weight_init = 2;
  spec.weight_copy = 2;
  spec.weight_majx = 2;
  spec.seed = 0x90b5;
  return spec;
}

std::vector<BatchItem> request_stream(const WorkloadSpec& spec,
                                      std::size_t count) {
  std::vector<BatchItem> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BatchItem item;
    item.request = make_request(spec, i);
    item.request.id = i + 1;
    items.push_back(std::move(item));
  }
  return items;
}

/// Profiles every (bank, subarray) slot the stream can touch, in a fixed
/// order, so group steering consumes its chip draws before execution.
void warm(Shard& shard) {
  for (unsigned bank = 0; bank < kBanks; ++bank)
    shard.warm(static_cast<dram::BankId>(bank), 0);
}

void expect_equal_responses(const BatchOutcome& fused,
                            const BatchOutcome& serial) {
  ASSERT_TRUE(fused.succeeded) << fused.error;
  ASSERT_TRUE(serial.succeeded) << serial.error;
  ASSERT_EQ(fused.responses.size(), serial.responses.size());
  for (std::size_t i = 0; i < fused.responses.size(); ++i) {
    const Response& f = fused.responses[i];
    const Response& s = serial.responses[i];
    EXPECT_EQ(f.id, s.id);
    EXPECT_EQ(f.status, s.status);
    EXPECT_EQ(f.error, s.error);
    ASSERT_EQ(f.result.size(), s.result.size()) << "request " << f.id;
    EXPECT_TRUE(f.result == s.result)
        << "request " << f.id << ": fused and serial payloads diverge";
    EXPECT_EQ(fused.rejected[i], serial.rejected[i]);
  }
}

/// Byte-compares the two shards' chip state: the stochastic-draw cursors
/// first (any divergence in consumed draws shows up here even when the
/// data happens to match), then every row the workload or the steered
/// activation groups can have touched.
void expect_equal_chip_state(Shard& a, Shard& b, const WorkloadSpec& spec) {
  EXPECT_EQ(a.engine().chip().noise_stream().cursor(),
            b.engine().chip().noise_stream().cursor());
  // Streams in identical states produce identical next draws.
  EXPECT_DOUBLE_EQ(a.engine().chip().rng().uniform(),
                   b.engine().chip().rng().uniform());

  for (unsigned bank = 0; bank < kBanks; ++bank) {
    const auto bank_id = static_cast<dram::BankId>(bank);
    for (unsigned row = 0; row < spec.rows; ++row) {
      const dram::RowAddr global = a.engine().global_of(0, row);
      EXPECT_TRUE(a.engine().read_row(bank_id, global) ==
                  b.engine().read_row(bank_id, global))
          << "bank " << bank << " row " << row << " diverges";
    }
    const pud::RowGroup& group = a.group_for(bank_id, 0);
    for (const dram::RowAddr local : group.rows) {
      const dram::RowAddr global = a.engine().global_of(0, local);
      EXPECT_TRUE(a.engine().read_row(bank_id, global) ==
                  b.engine().read_row(bank_id, global))
          << "bank " << bank << " group row " << local << " diverges";
    }
  }
}

class ServeProperty : public ::testing::Test {
 protected:
  // Strict verification: the fused programs must clear the timing gate
  // with nothing but the declared (intended) violations.
  ScopedEnv strict_{"SIMRA_VERIFY", "strict"};
  fault::Resilience clean_{};
};

TEST_F(ServeProperty, FusedBatchesMatchUnbatchedExecutionExactly) {
  const WorkloadSpec spec = property_spec();
  Shard fused(shard_config(), 0);
  Shard serial(shard_config(), 0);
  warm(fused);
  warm(serial);

  const std::vector<BatchItem> stream = request_stream(spec, 24);
  constexpr std::size_t kBatch = 6;
  std::uint64_t seq = 0;
  for (std::size_t begin = 0; begin < stream.size(); begin += kBatch, ++seq) {
    const std::size_t count = std::min(kBatch, stream.size() - begin);
    const std::span<const BatchItem> batch(stream.data() + begin, count);
    const BatchOutcome f = fused.execute(batch, seq, clean_);
    const BatchOutcome s = serial.execute_unbatched(batch, seq);
    expect_equal_responses(f, s);
  }
  expect_equal_chip_state(fused, serial, spec);
}

TEST_F(ServeProperty, BatchSizeDoesNotChangeResultsOrChipState) {
  // The same stream fused as 8-request batches vs singleton batches: the
  // response payloads and the final chip state must agree (scheduling
  // metadata — batch ids, fused-timeline timestamps — may differ).
  const WorkloadSpec spec = property_spec();
  Shard wide(shard_config(), 0);
  Shard narrow(shard_config(), 0);
  warm(wide);
  warm(narrow);

  const std::vector<BatchItem> stream = request_stream(spec, 24);
  std::vector<Response> wide_responses;
  std::vector<Response> narrow_responses;
  std::uint64_t seq = 0;
  for (std::size_t begin = 0; begin < stream.size(); begin += 8, ++seq) {
    const std::size_t count = std::min<std::size_t>(8, stream.size() - begin);
    BatchOutcome out = wide.execute(
        std::span<const BatchItem>(stream.data() + begin, count), seq, clean_);
    ASSERT_TRUE(out.succeeded) << out.error;
    for (Response& r : out.responses) wide_responses.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    BatchOutcome out = narrow.execute(
        std::span<const BatchItem>(stream.data() + i, 1), i, clean_);
    ASSERT_TRUE(out.succeeded) << out.error;
    narrow_responses.push_back(std::move(out.responses.front()));
  }

  ASSERT_EQ(wide_responses.size(), narrow_responses.size());
  for (std::size_t i = 0; i < wide_responses.size(); ++i) {
    EXPECT_EQ(wide_responses[i].status, narrow_responses[i].status);
    EXPECT_TRUE(wide_responses[i].result == narrow_responses[i].result)
        << "request " << wide_responses[i].id;
  }
  expect_equal_chip_state(wide, narrow, spec);
}

TEST_F(ServeProperty, CompileRejectedRequestsDoNotPerturbTheBatch) {
  const WorkloadSpec spec = property_spec();
  Shard fused(shard_config(), 0);
  Shard serial(shard_config(), 0);
  warm(fused);
  warm(serial);

  std::vector<BatchItem> stream = request_stream(spec, 8);
  // Plant an invalid request mid-batch: both paths must reject it in
  // place and execute the rest identically.
  stream[3].request.op = OpKind::kRowClone;
  stream[3].request.src = 5;
  stream[3].request.dst = 5;
  stream[3].request.operands.clear();

  const BatchOutcome f = fused.execute(stream, 0, clean_);
  const BatchOutcome s = serial.execute_unbatched(stream, 0);
  ASSERT_TRUE(f.rejected[3]);
  EXPECT_EQ(f.responses[3].status, Status::kRejected);
  EXPECT_EQ(f.responses[3].error, "rowclone source equals destination");
  expect_equal_responses(f, s);
  expect_equal_chip_state(fused, serial, spec);
}

}  // namespace
}  // namespace simra::serve
