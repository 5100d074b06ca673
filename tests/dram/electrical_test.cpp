#include "dram/electrical.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "dram/calibration.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace simra::dram {
namespace {

class ElectricalTest : public ::testing::Test {
 protected:
  VendorProfile profile_ = VendorProfile::hynix_m();
  VariationField variation_{42};
  ElectricalModel model_{&profile_, &variation_};
  Rng rng_{7};

  BitlineContext ctx(std::uint64_t group_key = 1) const {
    BitlineContext c;
    c.bank = 0;
    c.subarray = 1;
    c.group_key = group_key;
    c.columns = profile_.geometry.columns;
    return c;
  }
};

TEST_F(ElectricalTest, ClassifyBestMajTiming) {
  const ApaDecision d =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  EXPECT_DOUBLE_EQ(d.latch_fraction, 0.0);
  EXPECT_DOUBLE_EQ(d.first_row_extra_weight, 0.0);  // t1+t2 == baseline.
  EXPECT_DOUBLE_EQ(d.second_group_weight, 1.0);
  EXPECT_DOUBLE_EQ(d.row_dropout_probability, 0.0);
}

TEST_F(ElectricalTest, ClassifyLongerT1AddsAsymmetry) {
  const ApaDecision d = model_.classify_apa(Nanoseconds{3.0}, Nanoseconds{3.0});
  EXPECT_DOUBLE_EQ(d.latch_fraction, 0.0);
  EXPECT_GT(d.first_row_extra_weight, 0.0);
}

TEST_F(ElectricalTest, ClassifyCopyTiming) {
  const ApaDecision d =
      model_.classify_apa(Nanoseconds{36.0}, Nanoseconds{3.0});
  EXPECT_DOUBLE_EQ(d.latch_fraction, 1.0);
}

TEST_F(ElectricalTest, ClassifyWeakT2) {
  const ApaDecision d =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{1.5});
  EXPECT_LT(d.second_group_weight, 1.0);
  EXPECT_GT(d.row_dropout_probability, 0.0);
  EXPECT_GT(d.smra_z_penalty, calib::kSmra.penalty_t2_low);  // + sum + t1.
}

TEST_F(ElectricalTest, LatchFractionMonotoneInT1) {
  double prev = -1.0;
  for (double t1 : {1.5, 3.0, 4.0, 6.0, 12.0, 18.0, 36.0, 50.0}) {
    const double f = calib::mrc_latch_fraction(t1);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(calib::mrc_latch_fraction(1.5), 0.0);
  EXPECT_DOUBLE_EQ(calib::mrc_latch_fraction(36.0), 1.0);
}

TEST_F(ElectricalTest, UnanimousChargeShareIsStable) {
  // All 32 cells agree: the margin is enormous, every bitline resolves
  // correctly and stably.
  const std::size_t columns = profile_.geometry.columns;
  BitVec ones(columns, true);
  std::vector<ConnectedRow> rows(32);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].local_row = static_cast<RowAddr>(i);
    rows[i].data = &ones;
    rows[i].weight = 1.0;
  }
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  const ChargeShareResult r = model_.resolve_charge_share(
      ctx(), rows, 0.0, EnvironmentState{}, apa, rng_);
  EXPECT_EQ(r.resolved.popcount(), columns);
  EXPECT_EQ(r.stable.popcount(), columns);
  EXPECT_EQ(r.ties, 0u);
}

TEST_F(ElectricalTest, TieResolvesMetastably) {
  const std::size_t columns = profile_.geometry.columns;
  BitVec ones(columns, true);
  BitVec zeros(columns, false);
  std::vector<ConnectedRow> rows(2);
  rows[0] = {0, &ones, 1.0};
  rows[1] = {1, &zeros, 1.0};
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  const ChargeShareResult r = model_.resolve_charge_share(
      ctx(), rows, 0.0, EnvironmentState{}, apa, rng_);
  EXPECT_EQ(r.ties, columns);
  EXPECT_EQ(r.stable.popcount(), 0u);
  // Roughly half the metastable bitlines fall each way.
  EXPECT_NEAR(static_cast<double>(r.resolved.popcount()),
              columns / 2.0, columns * 0.05);
}

TEST_F(ElectricalTest, PatternNoiseDistinguishesFixedFromRandom) {
  const std::size_t columns = 4096;
  BitVec fixed(columns);
  fixed.fill_byte(0xAA);
  BitVec random(columns);
  random.randomize(rng_);
  std::vector<ConnectedRow> fixed_rows{{0, &fixed, 1.0}};
  std::vector<ConnectedRow> random_rows{{0, &random, 1.0}};
  EXPECT_DOUBLE_EQ(ElectricalModel::estimate_pattern_noise(fixed_rows), 0.0);
  EXPECT_NEAR(ElectricalModel::estimate_pattern_noise(random_rows), 0.5, 0.1);
}

TEST_F(ElectricalTest, FracRowsContributeOnlyCapacitance) {
  // 3 charged cells + 29 Frac cells: the majority must still be ones.
  const std::size_t columns = profile_.geometry.columns;
  BitVec ones(columns, true);
  std::vector<ConnectedRow> rows;
  for (int i = 0; i < 3; ++i) rows.push_back({static_cast<RowAddr>(i), &ones, 1.0});
  for (int i = 3; i < 32; ++i)
    rows.push_back({static_cast<RowAddr>(i), nullptr, 1.0});
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  const ChargeShareResult r = model_.resolve_charge_share(
      ctx(), rows, 0.0, EnvironmentState{}, apa, rng_);
  EXPECT_EQ(r.ties, 0u);
  // m = 3 with N = 32: low margin -> partially stable, but stable bits
  // must all be the majority value (ones).
  EXPECT_EQ((r.stable & ~r.resolved).popcount(), 0u);
}

TEST_F(ElectricalTest, WriteMaskNearlyFullAtBestTiming) {
  const ApaDecision apa = model_.classify_apa(Nanoseconds{3.0}, Nanoseconds{3.0});
  const BitVec mask =
      model_.write_overdrive_mask(ctx(), 5, 3, EnvironmentState{}, apa);
  EXPECT_GT(mask.popcount(), profile_.geometry.columns * 999 / 1000);
}

TEST_F(ElectricalTest, WriteMaskDegradesAtWeakTiming) {
  const ApaDecision best = model_.classify_apa(Nanoseconds{3.0}, Nanoseconds{3.0});
  const ApaDecision weak = model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{1.5});
  const BitVec best_mask =
      model_.write_overdrive_mask(ctx(), 5, 3, EnvironmentState{}, best);
  const BitVec weak_mask =
      model_.write_overdrive_mask(ctx(), 5, 3, EnvironmentState{}, weak);
  EXPECT_LT(weak_mask.popcount(), best_mask.popcount());
}

TEST_F(ElectricalTest, CopyStableMaskNearPerfect) {
  BitVec source(profile_.geometry.columns);
  source.randomize(rng_);
  const BitVec mask =
      model_.copy_stable_mask(ctx(), 3, 31, source, EnvironmentState{});
  EXPECT_GT(static_cast<double>(mask.popcount()),
            profile_.geometry.columns * 0.995);
}

TEST_F(ElectricalTest, AllOnesCopyTo31DestsWeaker) {
  BitVec random(profile_.geometry.columns);
  random.randomize(rng_);
  BitVec ones(profile_.geometry.columns, true);
  const BitVec random_mask =
      model_.copy_stable_mask(ctx(), 3, 31, random, EnvironmentState{});
  const BitVec ones_mask =
      model_.copy_stable_mask(ctx(), 3, 31, ones, EnvironmentState{});
  EXPECT_LT(ones_mask.popcount(), random_mask.popcount());
}

TEST_F(ElectricalTest, FracSenseBiasedForMicron) {
  VendorProfile micron = VendorProfile::micron_e();
  VariationField var(1);
  ElectricalModel model(&micron, &var);
  BitlineContext c;
  c.columns = micron.geometry.columns;
  Rng::CounterStream noise(1, 0xf7acULL);
  const BitVec sensed = model.sense_frac_row(c, noise);
  EXPECT_EQ(sensed.popcount(), micron.geometry.columns);  // biased to one.
}

TEST_F(ElectricalTest, FracSenseMixedForUnbiased) {
  Rng::CounterStream noise(1, 0xf7acULL);
  const BitVec sensed = model_.sense_frac_row(ctx(), noise);
  const double frac =
      static_cast<double>(sensed.popcount()) / profile_.geometry.columns;
  EXPECT_GT(frac, 0.3);
  EXPECT_LT(frac, 0.7);
}

TEST_F(ElectricalTest, GroupKeyOrderIndependentOfContent) {
  const std::vector<RowAddr> a{1, 2, 3};
  const std::vector<RowAddr> b{1, 2, 4};
  EXPECT_EQ(group_key_of(a), group_key_of(a));
  EXPECT_NE(group_key_of(a), group_key_of(b));
}

TEST_F(ElectricalTest, DeviateCacheSurvivesEviction) {
  // The deviate spans are pure functions of the variation field: whatever
  // the memos do — hits, a wholesale reset at the cap, regeneration —
  // every query must reproduce the same persistent mask. Narrow columns
  // keep the churn of blowing past both memos' cap (4096 entries) cheap.
  BitlineContext c = ctx();
  c.columns = 64;
  const EnvironmentState env;
  const ApaDecision apa = model_.classify_apa(Nanoseconds{3.0},
                                              Nanoseconds{3.0});
  const BitVec first = model_.write_overdrive_mask(c, 0, 1, env, apa);
  EXPECT_EQ(model_.write_overdrive_mask(c, 0, 1, env, apa), first);
  for (RowAddr row = 1; row < 6000; ++row)
    model_.write_overdrive_mask(c, row, 1, env, apa);
  EXPECT_EQ(model_.write_overdrive_mask(c, 0, 1, env, apa), first);
}

TEST_F(ElectricalTest, DeviateCacheKeyedByFullTuple) {
  // Rows whose (subarray, row) key components swap roles must not alias:
  // the cache keys on the full (salt, k1, k2, count) tuple, not a folded
  // digest of it. Weak timings put the threshold mid-distribution so the
  // masks are mixed (an all-ones mask would compare equal vacuously).
  BitlineContext a = ctx();
  BitlineContext b = a;
  a.subarray = 0;
  b.subarray = 5;
  const EnvironmentState env;
  const ApaDecision apa = model_.classify_apa(Nanoseconds{1.5},
                                              Nanoseconds{1.5});
  const BitVec mask_a = model_.write_overdrive_mask(a, 5, 5, env, apa);
  const BitVec mask_b = model_.write_overdrive_mask(b, 0, 5, env, apa);
  ASSERT_GT(mask_a.popcount(), 0u);
  ASSERT_LT(mask_a.popcount(), mask_a.size());
  EXPECT_NE(mask_a, mask_b);
}

TEST_F(ElectricalTest, LatchedMaskMatchesScalarBitlineLatched) {
  const ApaDecision apa = model_.classify_apa(Nanoseconds{12.0},
                                              Nanoseconds{3.0});
  ASSERT_GT(apa.latch_fraction, 0.0);
  ASSERT_LT(apa.latch_fraction, 1.0);
  const BitVec mask = model_.latched_mask(ctx(), apa);
  ASSERT_EQ(mask.size(), profile_.geometry.columns);
  for (std::size_t c = 0; c < 512; ++c)
    ASSERT_EQ(mask.get(c), model_.bitline_latched(ctx(), c, apa)) << c;
  // Memoized: the repeat query returns the identical mask.
  EXPECT_EQ(model_.latched_mask(ctx(), apa), mask);
}

TEST_F(ElectricalTest, ClassPassKeepsResolveAndMarginHistogram) {
  // Six seeded random rows plus 26 Frac rows (which spread the margins
  // over several buckets), in the two weight shapes the class path takes:
  // all weights equal, and one odd-weight row among equals (lead and
  // tail counts both in play), with the odd row third or fifth in the
  // list. The last shape also resolves a width that is not a multiple of
  // 64 over the same full-width rows, so the bits past the last column
  // must not count. Every shape has tie columns. The resolve and the Rng
  // draws it consumes must not depend on whether margins are recorded.
  // The recorded sense-margin histogram counts every non-tie column
  // once, and its buckets and sum are pinned.
  const std::size_t row_bits = profile_.geometry.columns;
  Rng data_rng(2312);
  std::vector<BitVec> data(6, BitVec(row_bits));
  for (BitVec& d : data) d.randomize(data_rng);
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  obs::Histogram& hist = obs::MetricsRegistry::instance().histogram(
      "electrical/sense_margin",
      {-3, -2, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 2, 3});

  struct Pinned {
    double middle_weight;
    std::uint64_t resolved_hash;
    std::size_t stable;
    std::size_t ties;
    std::uint64_t next_draw;
    std::array<std::uint64_t, 12> buckets;
    double sum;
    std::size_t odd_row = 2;  ///< data row that carries middle_weight.
    std::size_t columns = 0;  ///< resolved width; 0 = the whole row.
  };
  const Pinned shapes[] = {
      {1.0, 0xf965977bb1f46a27ULL, 933, 2573, 0x0d3c4ca3aa663971ULL,
       {0, 3891, 0, 0, 0, 1488, 0, 0, 0, 0, 240, 0},
       -0x1.533aa5876a2c1p+13},
      {3.0, 0x38b6eb9c1757ea72ULL, 2719, 1249, 0x36017dc2c1f818cfULL,
       {0, 2812, 0, 0, 0, 2642, 0, 0, 0, 0, 1249, 240},
       -0x1.2a9214f3a6178p+12},
      {5.0, 0xdb4821aa06448a44ULL, 5165, 241, 0x62f0cdfbf8495649ULL,
       {0, 1368, 0, 0, 0, 2573, 0, 0, 0, 0, 2523, 1487},
       0x1.c99a7e3c59066p+12, 4},
      {3.0, 0x9263acc0c49dfa7bULL, 343, 148, 0x6f9b5bf049746967ULL,
       {0, 336, 0, 0, 0, 327, 0, 0, 0, 0, 160, 29},
       -0x1.11f5d9be9cc18p+9, 2, 1000},
  };
  for (const Pinned& want : shapes) {
    BitlineContext context = ctx();
    if (want.columns != 0) context.columns = want.columns;
    const std::size_t columns = context.columns;
    std::vector<ConnectedRow> rows;
    for (std::size_t i = 0; i < data.size(); ++i)
      rows.push_back({static_cast<RowAddr>(i), &data[i],
                      i == want.odd_row ? want.middle_weight : 1.0});
    for (std::size_t i = data.size(); i < 32; ++i)
      rows.push_back({static_cast<RowAddr>(i), nullptr, 1.0});
    for (const bool record : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "weight " << want.middle_weight << " at row "
                   << want.odd_row << ", " << columns << " columns, obs "
                   << record);
      obs::set_enabled_for_test(record);
      hist.reset();
      Rng rng(7);
      const ChargeShareResult r = model_.resolve_charge_share(
          context, rows, 0.25, EnvironmentState{}, apa, rng);
      const std::uint64_t next_draw = rng();
      obs::set_enabled_for_test(std::nullopt);

      std::uint64_t hash = 1469598103934665603ULL;
      for (const std::uint64_t w : r.resolved.words())
        hash = (hash ^ w) * 1099511628211ULL;
      EXPECT_EQ(hash, want.resolved_hash);
      EXPECT_EQ(r.stable.popcount(), want.stable);
      EXPECT_EQ(r.ties, want.ties);
      EXPECT_EQ(next_draw, want.next_draw);
      if (!record) {
        EXPECT_EQ(hist.count(), 0u);
        continue;
      }
      EXPECT_EQ(hist.count(), columns - r.ties);
      for (std::size_t b = 0; b < want.buckets.size(); ++b)
        EXPECT_EQ(hist.bucket_count(b), want.buckets[b]) << "bucket " << b;
      EXPECT_EQ(hist.sum(), want.sum);
    }
  }
}

/// FNV-1a over a mask's words.
std::uint64_t mask_hash(const BitVec& mask) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::uint64_t w : mask.words())
    hash = (hash ^ w) * 1099511628211ULL;
  return hash;
}

TEST(ElectricalMaskPins, ThresholdMasksKeepTheirRecordedBits) {
  // write_overdrive_mask and copy_stable_mask over eight rows of an
  // 8,192-column and a 16,384-column profile, at three (env, APA, copy)
  // settings: the popcount summed over the rows and a hash chained over
  // their masks, pinned from the float-span compare that predates the
  // code masks. The pins hold on the first query, on the memoized repeat,
  // and after walking more than 4,096 distinct narrow rows has reset
  // every memo, so the masks are recomputed from fresh codes.
  struct Setting {
    EnvironmentState env;
    double t1_ns;
    double t2_ns;
    unsigned differing_fields;
    std::size_t n_dest;
    bool all_ones_source;
  };
  const Setting settings[] = {
      {{Celsius{50.0}, Volts{2.5}}, 3.0, 3.0, 3, 1, false},
      {{Celsius{85.0}, Volts{2.5}}, 1.5, 1.5, 5, 31, true},
      {{Celsius{50.0}, Volts{2.1}}, 1.5, 3.0, 2, 8, false},
  };
  struct Pin {
    std::size_t write_popcount;
    std::uint64_t write_hash;
    std::size_t copy_popcount;
    std::uint64_t copy_hash;
  };
  struct ProfilePins {
    VendorProfile profile;
    std::array<Pin, 3> pins;  ///< one per setting.
  };
  const ProfilePins cases[] = {
      {VendorProfile::hynix_m(),
       {{{65536, 0x70c07a5ea75506cfULL, 65526, 0x3419d3b3b3716c7ULL},
         {28603, 0x3dcc3eb7a27bd098ULL, 63991, 0xfdb04951a0f23017ULL},
         {65526, 0x6532698ca79f54e7ULL, 65358, 0xa12f0d5956595584ULL}}}},
      {VendorProfile::micron_e(),
       {{{131072, 0xe24a95dbc8495125ULL, 131048, 0x17f706de71f3c326ULL},
         {57361, 0xde4906c719c04c24ULL, 127951, 0xde62d34b33405a4eULL},
         {131050, 0x6ac52f1164174085ULL, 130713, 0xacb9442e6064f39aULL}}}},
  };
  struct Row {
    BankId bank;
    SubarrayId subarray;
    RowAddr row;
  };
  const Row rows[] = {{0, 0, 0},  {0, 1, 5},   {1, 3, 17}, {2, 7, 511},
                      {3, 0, 100}, {0, 12, 33}, {7, 2, 250}, {5, 9, 1}};

  for (const ProfilePins& pc : cases) {
    const std::size_t columns = pc.profile.geometry.columns;
    VariationField variation(2024);
    ElectricalModel model(&pc.profile, &variation);
    Rng source_rng(11);
    BitVec random_source(columns);
    random_source.randomize(source_rng);
    const BitVec ones_source(columns, true);

    const auto check = [&](const char* when) {
      for (std::size_t si = 0; si < std::size(settings); ++si) {
        const Setting& s = settings[si];
        const ApaDecision apa = model.classify_apa(Nanoseconds{s.t1_ns},
                                                   Nanoseconds{s.t2_ns});
        Pin got{0, 0, 0, 0};
        for (std::size_t ri = 0; ri < std::size(rows); ++ri) {
          BitlineContext c;
          c.bank = rows[ri].bank;
          c.subarray = rows[ri].subarray;
          c.group_key = ri + 1;
          c.columns = columns;
          const BitVec& write = model.write_overdrive_mask(
              c, rows[ri].row, s.differing_fields, s.env, apa);
          got.write_popcount += write.popcount();
          got.write_hash = hash_combine(got.write_hash, mask_hash(write));
          const BitVec& copy = model.copy_stable_mask(
              c, rows[ri].row, s.n_dest,
              s.all_ones_source ? ones_source : random_source, s.env);
          got.copy_popcount += copy.popcount();
          got.copy_hash = hash_combine(got.copy_hash, mask_hash(copy));
        }
        const Pin& want = pc.pins[si];
        SCOPED_TRACE(testing::Message()
                     << pc.profile.short_name << pc.profile.die_revision
                     << " (" << columns << " columns), setting " << si << ", " << when
                     << ": got {" << got.write_popcount << ", 0x" << std::hex
                     << got.write_hash << "ULL, " << std::dec
                     << got.copy_popcount << ", 0x" << std::hex
                     << got.copy_hash << "ULL}");
        EXPECT_EQ(got.write_popcount, want.write_popcount);
        EXPECT_EQ(got.write_hash, want.write_hash);
        EXPECT_EQ(got.copy_popcount, want.copy_popcount);
        EXPECT_EQ(got.copy_hash, want.copy_hash);
      }
    };
    check("first query");
    check("memoized repeat");
    BitlineContext narrow;
    narrow.columns = 64;
    const ApaDecision best = model.classify_apa(Nanoseconds{3.0},
                                                Nanoseconds{3.0});
    for (RowAddr row = 0; row < 4200; ++row) {
      model.write_overdrive_mask(narrow, row, 1, EnvironmentState{}, best);
      model.copy_stable_mask(narrow, row, 1, ones_source, EnvironmentState{});
    }
    check("after the memo reset");
  }
}

}  // namespace
}  // namespace simra::dram
