// The word-parallel kernels must agree bit-for-bit with the scalar
// per-column loops they replaced (the value-preservation invariant the
// golden-equivalence suite enforces end to end). Each test compares a
// kernel against a naive scalar reference at sizes straddling the word
// boundary: 0, 1, 63, 64, 65, and a full 8192-column row.
#include "dram/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/electrical.hpp"
#include "dram/process_variation.hpp"

namespace simra::dram {
namespace {

constexpr std::size_t kSizes[] = {0, 1, 63, 64, 65, 8192};

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.normal());
  return out;
}

class ScopedSimd {
 public:
  explicit ScopedSimd(kernels::SimdTier tier) {
    kernels::set_simd_for_test(tier);
  }
  ~ScopedSimd() { kernels::set_simd_for_test(std::nullopt); }
};

/// The tiers this host runs: scalar, and AVX2 where supported.
std::vector<kernels::SimdTier> host_tiers() {
  std::vector<kernels::SimdTier> tiers{kernels::SimdTier::scalar};
  if (kernels::avx2_supported()) tiers.push_back(kernels::SimdTier::avx2);
  return tiers;
}

// Code widths straddle the AVX2 fill's 32-code and the mask's 64-column
// grain, up to the 16,384-column profile's row.
constexpr std::size_t kCodeWidths[] = {0,  1,  31, 32,   33,
                                       63, 64, 65, 8192, 16384};

std::vector<std::uint64_t> code_prefixes() {
  return {0, 0x5eed'5eed'5eed'5eedULL, hash_combine(99, 3)};
}

/// The float compare the code mask replaces: the column's hashed uniform
/// rounded to float, against u_eff.
BitVec float_oracle_mask(std::uint64_t prefix, std::size_t n, float u_eff) {
  BitVec mask(n);
  for (std::size_t c = 0; c < n; ++c)
    mask.set(c, static_cast<float>(uniform_from_hash(
                    hash_combine(prefix, c))) < u_eff);
  return mask;
}

/// float(u(m)) for m in [0, 2^53]'s index space (uniform_threshold_index).
float uniform_at(std::uint64_t m) {
  return static_cast<float>(uniform_from_hash(m << 11));
}

TEST(KernelsTest, HashedCodeFillIsTheTopHashByte) {
  for (const kernels::SimdTier tier : host_tiers()) {
    ScopedSimd scoped(tier);
    for (std::size_t n : kCodeWidths) {
      for (std::uint64_t prefix : code_prefixes()) {
        // Guard bytes past the span catch a fill that overruns its tail.
        std::vector<std::uint8_t> codes(n + 32, 0xa5);
        kernels::hashed_code_fill(prefix, std::span(codes).first(n));
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(codes[i], hash_combine(prefix, i) >> 56)
              << kernels::simd_name(tier) << " n=" << n << " i=" << i;
        for (std::size_t i = n; i < codes.size(); ++i)
          ASSERT_EQ(codes[i], 0xa5)
              << kernels::simd_name(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelsTest, UniformThresholdIndexBracketsUEff) {
  constexpr std::uint64_t kSteps = 1ULL << 53;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> u_effs = {
      0.0f,
      -0.0f,
      -1.0f,
      1.0f,
      std::nextafter(1.0f, 0.0f),
      2.0f,
      kInf,
      -kInf,
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      uniform_at(0),
      std::nextafter(uniform_at(0), 0.0f),
      std::nextafter(uniform_at(0), 1.0f),
      uniform_at(kSteps - 1),
      0.5f};
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<float>(rng.uniform());
    u_effs.push_back(u);
    u_effs.push_back(std::nextafter(u, 0.0f));
  }
  for (const float u_eff : u_effs) {
    const std::uint64_t t = kernels::uniform_threshold_index(u_eff);
    ASSERT_LE(t, kSteps) << u_eff;
    if (t > 0) {
      ASSERT_LT(uniform_at(t - 1), u_eff) << u_eff;
    }
    if (t < kSteps) {
      ASSERT_FALSE(uniform_at(t) < u_eff) << u_eff;
    }
  }
  EXPECT_EQ(kernels::uniform_threshold_index(0.0f), 0u);
  EXPECT_EQ(kernels::uniform_threshold_index(-1.0f), 0u);
  EXPECT_EQ(kernels::uniform_threshold_index(
                std::numeric_limits<float>::quiet_NaN()),
            0u);
  EXPECT_EQ(kernels::uniform_threshold_index(2.0f), kSteps);
  // The largest m rounds up to u = 1 exactly, so 1.0f leaves it clear.
  EXPECT_LT(kernels::uniform_threshold_index(1.0f), kSteps);
}

/// The smallest T in [0, 2^53] with uniform_at(T) >= u_eff, by bisection
/// over the monotone predicate uniform_at(m) < u_eff.
std::uint64_t bisected_threshold_index(float u_eff) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 1ULL << 53;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (uniform_at(mid) < u_eff)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

TEST(KernelsTest, UniformThresholdIndexMatchesBisection) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> u_effs = {0.0f,
                               -0.0f,
                               1.0f,
                               std::nextafter(1.0f, 0.0f),
                               std::nextafter(1.0f, 2.0f),
                               2.0f,
                               kInf,
                               -kInf,
                               std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::denorm_min(),
                               std::numeric_limits<float>::min(),
                               std::nextafter(std::numeric_limits<float>::min(),
                                              0.0f),
                               uniform_at(0),
                               std::nextafter(uniform_at(0), 0.0f),
                               std::nextafter(uniform_at(0), 1.0f),
                               uniform_at((1ULL << 53) - 1)};
  Rng rng(37);
  while (u_effs.size() < 1'000'000) {
    // Random floats in [0, 1] with both neighbours, and random bit
    // patterns (every sign, exponent, denormal, inf and NaN).
    const auto u = static_cast<float>(rng.uniform());
    u_effs.push_back(u);
    u_effs.push_back(std::nextafter(u, 0.0f));
    u_effs.push_back(std::nextafter(u, 1.0f));
    u_effs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
  }
  for (const float u_eff : u_effs)
    ASSERT_EQ(kernels::uniform_threshold_index(u_eff),
              bisected_threshold_index(u_eff))
        << std::hexfloat << u_eff;
}

TEST(KernelsTest, CodeThresholdMaskMatchesFloatOracle) {
  Rng rng(29);
  for (const kernels::SimdTier tier : host_tiers()) {
    ScopedSimd scoped(tier);
    for (std::size_t n : kCodeWidths) {
      for (std::uint64_t prefix : code_prefixes()) {
        std::vector<std::uint8_t> codes(n);
        kernels::hashed_code_fill(prefix, codes);
        std::vector<float> u_effs = {0.0f,
                                     -1.0f,
                                     1.0f,
                                     std::nextafter(1.0f, 0.0f),
                                     2.0f,
                                     std::numeric_limits<float>::quiet_NaN()};
        // A column's own value puts the threshold inside its code, so the
        // tied columns are re-hashed on both sides of it.
        if (n > 0) {
          for (std::size_t c : {std::size_t{0}, n / 2, n - 1}) {
            const auto u = static_cast<float>(
                uniform_from_hash(hash_combine(prefix, c)));
            u_effs.insert(u_effs.end(), {u, std::nextafter(u, 0.0f),
                                         std::nextafter(u, 1.0f)});
          }
        }
        for (int i = 0; i < 4; ++i)
          u_effs.push_back(static_cast<float>(rng.uniform()));
        for (const float u_eff : u_effs) {
          const BitVec mask =
              kernels::code_threshold_mask(prefix, codes, u_eff);
          ASSERT_EQ(mask.size(), n);
          ASSERT_EQ(mask.words(), float_oracle_mask(prefix, n, u_eff).words())
              << kernels::simd_name(tier) << " n=" << n
              << " prefix=" << prefix << " u_eff=" << u_eff;
        }
      }
    }
  }
}

TEST(KernelsTest, CodeMaskMatchesNormalDomain) {
  // Monotone equivalence contract used by the threshold-mask paths: the
  // mask bit computed from the codes in the uniform domain (u < Phi(z))
  // must equal the bit computed in the normal domain (zeta < z) for every
  // column.
  constexpr std::size_t n = 8192;
  const std::uint64_t prefix = hash_combine(0xabcdef, 17);
  std::vector<std::uint8_t> codes(n);
  std::vector<float> zetas(n);
  kernels::hashed_code_fill(prefix, codes);
  kernels::hashed_normal_fill(prefix, zetas);
  for (const double z : {-2.5, -0.7, 0.0, 0.4, 1.9, 3.2}) {
    const auto u_eff = static_cast<float>(normal_cdf(z));
    const auto z_eff = static_cast<float>(z);
    const BitVec from_codes =
        kernels::code_threshold_mask(prefix, codes, u_eff);
    std::size_t disagree = 0;
    for (std::size_t i = 0; i < n; ++i)
      disagree += from_codes.get(i) != (zetas[i] < z_eff);
    // float rounding on both sides can flip a column sitting exactly on
    // the threshold; allow a vanishing number of boundary columns.
    EXPECT_LE(disagree, 2u) << "z=" << z;
  }
}

TEST(KernelsTest, LatchRaceMaskMatchesScalar) {
  for (std::size_t n : kSizes) {
    const auto race = random_floats(n, n + 2);
    for (double fraction : {0.1, 0.5, 0.93}) {
      const BitVec mask = kernels::latch_race_mask(race, fraction);
      ASSERT_EQ(mask.size(), n);
      for (std::size_t c = 0; c < n; ++c)
        ASSERT_EQ(mask.get(c), normal_cdf(race[c]) < fraction)
            << "n=" << n << " c=" << c;
    }
  }
}

TEST(KernelsTest, OffsetNoiseMaskMatchesScalar) {
  for (std::size_t n : kSizes) {
    const auto offsets = random_floats(n, n + 3);
    Rng rng(n + 4);
    std::vector<double> noise(n);
    rng.normal_fill(noise);
    const BitVec mask = kernels::offset_noise_mask(offsets, noise, 0.35);
    ASSERT_EQ(mask.size(), n);
    for (std::size_t c = 0; c < n; ++c)
      ASSERT_EQ(mask.get(c), offsets[c] + 0.35 * noise[c] > 0.0)
          << "n=" << n << " c=" << c;
  }
}

TEST(KernelsTest, OffsetNoiseMaskRejectsSizeMismatch) {
  const auto offsets = random_floats(8, 1);
  const std::vector<double> noise(7, 0.0);
  EXPECT_THROW(kernels::offset_noise_mask(offsets, noise, 0.35),
               std::invalid_argument);
}

// Scalar reference: the seed's sampled lag-8 probe.
void scalar_lag8(const BitVec& v, std::size_t& disagree, std::size_t& total) {
  if (v.size() <= 8) return;
  for (std::size_t c = 0; c + 8 < v.size(); c += 16) {
    disagree += (v.get(c) != v.get(c + 8)) ? 1u : 0u;
    ++total;
  }
}

TEST(KernelsTest, Lag8DisagreementMatchesScalar) {
  // Extra sizes around the sampling stride and word boundaries: the guard
  // (n <= 8), a partner exactly at the edge, and multi-word tails.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                        std::size_t{9}, std::size_t{16}, std::size_t{17},
                        std::size_t{24}, std::size_t{25}, std::size_t{63},
                        std::size_t{64}, std::size_t{65}, std::size_t{127},
                        std::size_t{128}, std::size_t{8192}}) {
    Rng rng(n + 5);
    BitVec v(n);
    if (n > 0) v.randomize(rng);
    std::size_t want_disagree = 0, want_total = 0;
    scalar_lag8(v, want_disagree, want_total);
    std::size_t total = 0;
    const std::size_t disagree = kernels::lag8_disagreement(v, total);
    EXPECT_EQ(disagree, want_disagree) << "n=" << n;
    EXPECT_EQ(total, want_total) << "n=" << n;
  }
}

// The plane kernel's reference: bitslice_add of every row, word by word.
std::vector<std::uint64_t> reference_planes(const std::vector<BitVec>& rows,
                                            std::size_t words) {
  const auto n_planes = static_cast<std::size_t>(std::bit_width(rows.size()));
  std::vector<std::uint64_t> planes(n_planes * words);
  std::vector<std::uint64_t> acc(n_planes);
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::fill(acc.begin(), acc.end(), 0);
    for (const BitVec& row : rows) bitslice_add(acc, row.words()[wi]);
    for (std::size_t p = 0; p < n_planes; ++p) planes[p * words + wi] = acc[p];
  }
  return planes;
}

// Word counts straddle the AVX2 tier's four-word step; the rows are one
// word wider than counted, so nothing past `words` may be read.
constexpr std::size_t kPlaneWords[] = {0, 1, 3, 4, 5, 128};
constexpr std::size_t kPlaneRows[] = {0, 1, 2, 31, 32, 63};

std::vector<BitVec> random_rows(std::size_t n_rows, std::size_t words,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVec> rows(n_rows, BitVec((words + 1) * 64));
  for (auto& r : rows) r.randomize(rng);
  return rows;
}

TEST(KernelsTest, CountPlanesMatchesBitsliceAdd) {
  for (std::size_t words : kPlaneWords) {
    for (std::size_t n_rows : kPlaneRows) {
      const auto rows = random_rows(n_rows, words, words + 7 * n_rows);
      std::vector<const BitVec*> ptrs;
      for (const auto& r : rows) ptrs.push_back(&r);
      std::vector<std::uint64_t> planes(
          static_cast<std::size_t>(std::bit_width(n_rows)) * words, ~0ULL);
      kernels::count_planes(ptrs, words, planes);
      EXPECT_EQ(planes, reference_planes(rows, words))
          << "words=" << words << " rows=" << n_rows;
    }
  }
}

TEST(KernelsTest, CountPlanesRejectsBadShapes) {
  const auto rows = random_rows(64, 1, 3);
  std::vector<const BitVec*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  std::vector<std::uint64_t> planes(7);
  EXPECT_THROW(kernels::count_planes(ptrs, 1, planes),
               std::invalid_argument);  // > 63 rows.
  ptrs.resize(3);
  planes.resize(3);  // 3 rows over 2 words need 2 planes x 2 words.
  EXPECT_THROW(kernels::count_planes(ptrs, 2, planes),
               std::invalid_argument);
}

// Pins estimate_pattern_noise to the seed's scalar probe: random data
// reads as high activity, byte-periodic data as zero.
TEST(KernelsTest, PatternNoiseMatchesSeedScalar) {
  Rng rng(11);
  BitVec random_row(8192);
  random_row.randomize(rng);
  BitVec periodic_row(8192);
  periodic_row.fill_byte(0xA5);
  BitVec frac;  // null data pointer: a Frac row contributes nothing.

  const std::vector<ConnectedRow> rows = {
      {0, &random_row, 1.0}, {1, &periodic_row, 1.0}, {2, nullptr, 1.0}};
  std::size_t disagree = 0, total = 0;
  for (const ConnectedRow& r : rows) {
    if (r.data != nullptr) scalar_lag8(*r.data, disagree, total);
  }
  const double want =
      std::min(0.5, static_cast<double>(disagree) / static_cast<double>(total));
  EXPECT_DOUBLE_EQ(ElectricalModel::estimate_pattern_noise(rows), want);

  // Byte-periodic data alone cancels exactly; random data alone is ~0.5.
  const std::vector<ConnectedRow> periodic = {{0, &periodic_row, 1.0}};
  EXPECT_DOUBLE_EQ(ElectricalModel::estimate_pattern_noise(periodic), 0.0);
  const std::vector<ConnectedRow> random_only = {{0, &random_row, 1.0}};
  EXPECT_GT(ElectricalModel::estimate_pattern_noise(random_only), 0.4);
}

// The dispatched counter fill must replay CounterStream's per-index
// definition (draw i = f(prefix, base + i)) for any base, including the
// stream's own fill().
TEST(KernelsTest, CounterNormalFillMatchesStream) {
  for (std::size_t n : kSizes) {
    Rng::CounterStream stream(42, 7);
    const std::uint64_t prefix = stream.prefix();
    std::vector<double> from_stream(n);
    stream.fill(from_stream);
    EXPECT_EQ(stream.cursor(), n);

    std::vector<double> from_kernel(n);
    kernels::counter_normal_fill(prefix, 0, from_kernel);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(from_kernel[i], from_stream[i]) << "n=" << n << " i=" << i;

    // at() is position-independent and does not move the cursor.
    Rng::CounterStream probe(42, 7);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(probe.at(i), from_stream[i]) << "n=" << n << " i=" << i;
    EXPECT_EQ(probe.cursor(), 0u);
  }
}

// fill(N) == fill(N/2) + fill(N/2): chunking (and hence any schedule or
// batching that preserves draw indices) cannot change the values.
TEST(KernelsTest, CounterNormalFillChunkingInvariant) {
  constexpr std::size_t kN = 4096;
  Rng::CounterStream whole(0x5eed, 0xf7ac);
  std::vector<double> one_shot(kN);
  whole.fill(one_shot);

  Rng::CounterStream halves(0x5eed, 0xf7ac);
  std::vector<double> chunked(kN);
  halves.fill(std::span<double>(chunked).first(kN / 2));
  halves.fill(std::span<double>(chunked).subspan(kN / 2));
  EXPECT_EQ(chunked, one_shot);

  // The kernel entry point with explicit bases chunks identically, in
  // uneven pieces too.
  std::vector<double> pieces(kN);
  std::size_t done = 0;
  for (std::size_t chunk : {std::size_t{1}, std::size_t{63}, std::size_t{500},
                            kN}) {
    const std::size_t take = std::min(chunk, kN - done);
    kernels::counter_normal_fill(
        whole.prefix(), done, std::span<double>(pieces).subspan(done, take));
    done += take;
  }
  kernels::counter_normal_fill(whole.prefix(), done,
                               std::span<double>(pieces).subspan(done));
  EXPECT_EQ(pieces, one_shot);
}

// Distinct (seed, domain) pairs decorrelate; same pair replays.
TEST(KernelsTest, CounterStreamKeying) {
  Rng::CounterStream a(1, 2), a2(1, 2), b(1, 3), c(2, 2);
  EXPECT_EQ(a.prefix(), a2.prefix());
  EXPECT_NE(a.prefix(), b.prefix());
  EXPECT_NE(a.prefix(), c.prefix());
  EXPECT_EQ(a.next(), a2.next());
  EXPECT_NE(a.at(0), b.at(0));
}

// Scalar margin_chain reference, straight from the resolve math.
void scalar_margin_chain(std::span<const float> sums,
                         const kernels::MarginChainParams& p,
                         std::span<double> zg, std::span<std::int32_t> flags) {
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const double sum = sums[i];
    if (std::abs(sum) < 1e-9) {
      flags[i] = kernels::kClassTie;
      zg[i] = 0.0;
      continue;
    }
    flags[i] = sum > 0.0 ? kernels::kClassMajorityOne : 0;
    const double x =
        p.gain * std::pow(std::abs(sum) / (p.cap_ratio + p.n_connected),
                          p.margin_exponent);
    const double z = (x - p.threshold) / p.noise_denominator - p.z_penalty +
                     p.vendor_shift;
    zg[i] = z / p.g;
  }
}

kernels::MarginChainParams test_margin_params() {
  kernels::MarginChainParams p;
  p.gain = 1.1;
  p.g = 0.97;
  p.noise_denominator = 1.8;
  p.threshold = 0.4;
  p.vendor_shift = -0.05;
  p.z_penalty = 0.3;
  p.n_connected = 9.0;
  p.cap_ratio = 6.0;
  p.margin_exponent = 0.8;
  return p;
}

TEST(KernelsTest, MarginChainMatchesScalar) {
  const kernels::MarginChainParams p = test_margin_params();
  for (std::size_t n : kSizes) {
    auto sums = random_floats(n, n + 31);
    if (n > 2) sums[2] = 0.0f;  // exact tie class.
    if (n > 4) sums[4] = 5e-10f;
    std::vector<double> want_zg(n), zg(n);
    std::vector<std::int32_t> want_flags(n), flags(n);
    scalar_margin_chain(sums, p, want_zg, want_flags);
    kernels::margin_chain(sums, p, zg, flags);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(flags[i], want_flags[i]) << "n=" << n << " i=" << i;
      ASSERT_EQ(zg[i], want_zg[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelsTest, MarginChainRejectsSizeMismatch) {
  const auto sums = random_floats(8, 1);
  std::vector<double> zg(7);
  std::vector<std::int32_t> flags(8);
  EXPECT_THROW(
      kernels::margin_chain(sums, test_margin_params(), zg, flags),
      std::invalid_argument);
  zg.resize(8);
  flags.resize(9);
  EXPECT_THROW(
      kernels::margin_chain(sums, test_margin_params(), zg, flags),
      std::invalid_argument);
}

TEST(KernelsTest, FloatThresholdBracketsTheDouble) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    // Magnitudes from 1e-30 to 1e30, both signs, plus exact floats.
    double zg = rng.normal() * std::pow(10.0, rng.uniform(-30.0, 30.0));
    if (i % 7 == 0) zg = static_cast<float>(zg);
    const float t = kernels::float_threshold(zg);
    const float below = std::nextafter(t, -kInf);
    ASSERT_GE(static_cast<double>(t), zg) << std::hexfloat << zg;
    ASSERT_LT(static_cast<double>(below), zg) << std::hexfloat << zg;
    // The resolve compare on floats equals the double compare.
    for (const float zeta : {below, t, std::nextafter(t, kInf)})
      ASSERT_EQ(zeta < t, static_cast<double>(zeta) < zg)
          << std::hexfloat << zg << " zeta " << zeta;
  }
  constexpr float kMax = std::numeric_limits<float>::max();
  EXPECT_EQ(kernels::float_threshold(kMax), kMax);
  EXPECT_EQ(kernels::float_threshold(std::nextafter(double{kMax}, 0.0)), kMax);
  EXPECT_EQ(kernels::float_threshold(std::nextafter(double{kMax}, 1e300)),
            kInf);
  EXPECT_EQ(kernels::float_threshold(1e300), kInf);
  EXPECT_EQ(kernels::float_threshold(-1e300), -kMax);
  EXPECT_EQ(kernels::float_threshold(HUGE_VAL), kInf);
  EXPECT_EQ(kernels::float_threshold(-HUGE_VAL), -kInf);
  EXPECT_TRUE(std::isnan(kernels::float_threshold(std::nan(""))));
  EXPECT_EQ(kernels::float_threshold(0x1.000001p0), 0x1.000002p0f);
  EXPECT_EQ(kernels::float_threshold(-0x1.000001p0), -0x1.0p0f);
}

// One row of resolve_word inputs: a class table in the margin chain's
// double precision, and per column its class (-1: in no part), zeta and
// polarity.
struct ResolveCase {
  std::vector<double> zg;
  std::vector<std::int32_t> flags;
  std::vector<std::int32_t> class_of;
  std::vector<float> zetas;
  std::vector<float> polarities;
};

// Class 3 and 8 are ties, class 5 has a zg above FLT_MAX, class 6 a zg
// that is exactly a float. Zetas sit on their class's zg rounded to a
// float, one ulp to either side, or anywhere.
ResolveCase make_resolve_case(std::size_t words, std::uint64_t seed) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr std::size_t kClasses = 12;
  ResolveCase cs;
  Rng rng(seed);
  cs.zg.resize(kClasses);
  cs.flags.resize(kClasses);
  for (std::size_t i = 0; i < kClasses; ++i) {
    cs.zg[i] = rng.normal();
    cs.flags[i] = rng.chance(0.5) ? kernels::kClassMajorityOne : 0;
    if (i % 5 == 3) {
      cs.flags[i] = kernels::kClassTie;
      cs.zg[i] = 0.0;
    }
  }
  cs.zg[5] = 1e39;
  cs.zg[6] = static_cast<float>(cs.zg[6]);
  const std::size_t n = words * 64;
  cs.class_of.resize(n);
  cs.zetas.resize(n);
  cs.polarities.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    const auto cls = static_cast<std::int32_t>(rng.below(kClasses + 1)) - 1;
    cs.class_of[c] = cls;
    const float near = static_cast<float>(cs.zg[cls < 0 ? 0 : cls]);
    switch (rng.below(4)) {
      case 0: cs.zetas[c] = near; break;
      case 1: cs.zetas[c] = std::nextafter(near, kInf); break;
      case 2: cs.zetas[c] = std::nextafter(near, -kInf); break;
      default: cs.zetas[c] = static_cast<float>(rng.normal()); break;
    }
    cs.polarities[c] = rng.chance(0.1) ? 0.0f : static_cast<float>(rng.normal());
  }
  return cs;
}

// The parts of word `wi`: one per class present, with its float threshold.
std::vector<kernels::ClassPart> word_parts(const ResolveCase& cs,
                                           std::size_t wi) {
  std::vector<kernels::ClassPart> parts;
  for (std::size_t cls = 0; cls < cs.zg.size(); ++cls) {
    kernels::ClassPart part;
    for (std::size_t b = 0; b < 64; ++b)
      if (cs.class_of[wi * 64 + b] == static_cast<std::int32_t>(cls))
        part.mask |= 1ULL << b;
    if (part.mask == 0) continue;
    part.threshold = kernels::float_threshold(cs.zg[cls]);
    part.flags = cs.flags[cls];
    parts.push_back(part);
  }
  return parts;
}

// Per-column oracle: the branch of the scalar resolve loop, comparing the
// double zg against the zeta widened to double.
kernels::WordVerdict oracle_word(const ResolveCase& cs, std::size_t wi) {
  kernels::WordVerdict v;
  for (std::size_t b = 0; b < 64; ++b) {
    const std::size_t c = wi * 64 + b;
    const std::int32_t cls = cs.class_of[c];
    const std::uint64_t bit = 1ULL << b;
    if (cls >= 0 && (cs.flags[cls] & kernels::kClassTie) != 0) {
      v.ties |= bit;
    } else if (cls >= 0 && cs.zg[cls] > cs.zetas[c]) {
      v.stable |= bit;
      if ((cs.flags[cls] & kernels::kClassMajorityOne) != 0) v.resolved |= bit;
    } else if (cs.polarities[c] > 0.0f) {
      v.resolved |= bit;
    }
  }
  return v;
}

std::vector<kernels::WordVerdict> resolve_case(const ResolveCase& cs) {
  std::vector<kernels::WordVerdict> out;
  for (std::size_t wi = 0; wi < cs.class_of.size() / 64; ++wi)
    out.push_back(kernels::resolve_word(cs.zetas.data() + wi * 64,
                                        cs.polarities.data() + wi * 64,
                                        word_parts(cs, wi)));
  return out;
}

void expect_same(const kernels::WordVerdict& got,
                 const kernels::WordVerdict& want, std::size_t wi) {
  EXPECT_EQ(got.resolved, want.resolved) << "word " << wi;
  EXPECT_EQ(got.stable, want.stable) << "word " << wi;
  EXPECT_EQ(got.ties, want.ties) << "word " << wi;
}

TEST(KernelsTest, ResolveWordMatchesPerColumnOracle) {
  const ResolveCase cs = make_resolve_case(128, 41);
  const auto got = resolve_case(cs);
  std::size_t stable = 0, ties = 0;
  for (std::size_t wi = 0; wi < got.size(); ++wi) {
    expect_same(got[wi], oracle_word(cs, wi), wi);
    stable += static_cast<std::size_t>(std::popcount(got[wi].stable));
    ties += static_cast<std::size_t>(std::popcount(got[wi].ties));
  }
  // Every branch is taken.
  EXPECT_GT(stable, 1000u);
  EXPECT_GT(ties, 1000u);
  // No parts: every column resolves by polarity.
  const kernels::WordVerdict bare =
      kernels::resolve_word(cs.zetas.data(), cs.polarities.data(), {});
  std::uint64_t positive = 0;
  for (std::size_t b = 0; b < 64; ++b)
    positive |= static_cast<std::uint64_t>(cs.polarities[b] > 0.0f) << b;
  EXPECT_EQ(bare.resolved, positive);
  EXPECT_EQ(bare.stable | bare.ties, 0u);
}

// Each tier adds every part's set bits to its class, counted bit by bit
// here; the counts start non-zero, so the kernel must add, not assign.
TEST(KernelsTest, AddClassColumnsMatchesPerBitCount) {
  Rng rng(53);
  std::vector<kernels::ClassMask> parts;
  for (const std::uint64_t mask : {std::uint64_t{0}, ~std::uint64_t{0},
                                   std::uint64_t{1}, std::uint64_t{1} << 63})
    parts.push_back({mask, static_cast<std::uint32_t>(parts.size())});
  for (int i = 0; i < 500; ++i)
    parts.push_back({rng() & rng(), static_cast<std::uint32_t>(rng.below(7))});
  std::vector<std::uint64_t> want(7);
  for (std::size_t cls = 0; cls < want.size(); ++cls) want[cls] = 1000 * cls;
  const std::vector<std::uint64_t> start = want;
  for (const kernels::ClassMask& part : parts)
    for (int b = 0; b < 64; ++b) want[part.cls] += (part.mask >> b) & 1;
  for (const kernels::SimdTier tier : host_tiers()) {
    ScopedSimd scoped(tier);
    std::vector<std::uint64_t> counts = start;
    kernels::add_class_columns(parts, counts);
    EXPECT_EQ(counts, want) << kernels::simd_name(tier);
  }
}

// The batched deviate fill must replay the scalar per-cell hash chain.
TEST(KernelsTest, VariationNormalFillMatchesScalar) {
  const VariationField field(42);
  for (std::size_t n : kSizes) {
    std::vector<float> got(n);
    field.normal_fill(3, 7, 9, got);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], static_cast<float>(field.normal(3, 7, 9, i)))
          << "n=" << n << " i=" << i;
  }
}

// --- SIMD tier equivalence -------------------------------------------------
// Every kernel run under the forced AVX2 tier must produce output
// bit-identical to the forced scalar tier (the contract that lets
// SIMRA_SIMD stay outside the deterministic env surface). Skipped where
// the host lacks AVX2 — set_simd_for_test ignores a forced tier the
// machine can't run.

class SimdTierEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::avx2_supported())
      GTEST_SKIP() << "AVX2 unavailable on this machine";
  }
};

TEST_F(SimdTierEquivalence, ForcedAvx2OnUnsupportedHostIsIgnored) {
  // Vacuous here (the fixture skipped already if unsupported), but pins
  // that a *supported* host honours the override both ways.
  ScopedSimd scoped(kernels::SimdTier::scalar);
  EXPECT_EQ(kernels::active_simd(), kernels::SimdTier::scalar);
  kernels::set_simd_for_test(kernels::SimdTier::avx2);
  EXPECT_EQ(kernels::active_simd(), kernels::SimdTier::avx2);
}

TEST_F(SimdTierEquivalence, MaskKernelsBitIdentical) {
  for (std::size_t n : kSizes) {
    const auto zetas = random_floats(n, n + 21);
    Rng rng(n + 22);
    std::vector<double> noise(n);
    rng.normal_fill(noise);

    BitVec l_scalar, o_scalar;
    {
      ScopedSimd scoped(kernels::SimdTier::scalar);
      l_scalar = kernels::latch_race_mask(zetas, 0.47);
      o_scalar = kernels::offset_noise_mask(zetas, noise, 0.35);
    }
    ScopedSimd scoped(kernels::SimdTier::avx2);
    EXPECT_EQ(kernels::latch_race_mask(zetas, 0.47).words(), l_scalar.words())
        << "latch_race_mask n=" << n;
    EXPECT_EQ(kernels::offset_noise_mask(zetas, noise, 0.35).words(),
              o_scalar.words())
        << "offset_noise_mask n=" << n;
  }
}

TEST_F(SimdTierEquivalence, Lag8AndPopcountsBitIdentical) {
  for (std::size_t n :
       {std::size_t{0}, std::size_t{17}, std::size_t{64}, std::size_t{65},
        std::size_t{127}, std::size_t{8192}}) {
    Rng rng(n + 23);
    BitVec v(n);
    if (n > 0) v.randomize(rng);
    std::vector<BitVec> rows(9, BitVec(n));
    for (auto& r : rows) {
      if (n > 0) r.randomize(rng);
    }
    std::vector<const BitVec*> ptrs;
    for (const auto& r : rows) ptrs.push_back(&r);

    const std::size_t words = rows.front().word_count();
    std::size_t total_scalar = 0, disagree_scalar = 0;
    std::vector<std::uint64_t> planes_scalar(4 * words);
    {
      ScopedSimd scoped(kernels::SimdTier::scalar);
      disagree_scalar = kernels::lag8_disagreement(v, total_scalar);
      kernels::count_planes(ptrs, words, planes_scalar);
    }
    ScopedSimd scoped(kernels::SimdTier::avx2);
    std::size_t total = 0;
    EXPECT_EQ(kernels::lag8_disagreement(v, total), disagree_scalar)
        << "n=" << n;
    EXPECT_EQ(total, total_scalar) << "n=" << n;
    std::vector<std::uint64_t> planes(4 * words);
    kernels::count_planes(ptrs, words, planes);
    EXPECT_EQ(planes, planes_scalar) << "n=" << n;
  }
}

TEST_F(SimdTierEquivalence, HashedNormalFillBitIdentical) {
  // 8192 draws put ~400 expected samples in the Acklam tail regions
  // (p < 0.02425 or p > 1 - 0.02425), so the vector path's scalar
  // tail-lane fixup is exercised, not just the central branch.
  for (std::size_t n : kSizes) {
    for (std::uint64_t prefix :
         {std::uint64_t{0}, std::uint64_t{0x5eed'5eed'5eed'5eedULL},
          hash_combine(99, 3)}) {
      std::vector<float> scalar(n);
      {
        ScopedSimd scoped(kernels::SimdTier::scalar);
        kernels::hashed_normal_fill(prefix, scalar);
      }
      ScopedSimd scoped(kernels::SimdTier::avx2);
      std::vector<float> avx2(n);
      kernels::hashed_normal_fill(prefix, avx2);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(avx2[i], scalar[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdTierEquivalence, CounterNormalFillBitIdentical) {
  // Bases straddling the 8-lane grain exercise the vector path's index
  // arithmetic; 8192 draws reach the Acklam tail fixup lanes.
  for (std::size_t n : kSizes) {
    for (std::uint64_t base :
         {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{1} << 40}) {
      const std::uint64_t prefix = hash_combine(0x5eed, 0xf7ac);
      std::vector<double> scalar(n);
      {
        ScopedSimd scoped(kernels::SimdTier::scalar);
        kernels::counter_normal_fill(prefix, base, scalar);
      }
      ScopedSimd scoped(kernels::SimdTier::avx2);
      std::vector<double> avx2(n);
      kernels::counter_normal_fill(prefix, base, avx2);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(avx2[i], scalar[i])
            << "n=" << n << " base=" << base << " i=" << i;
    }
  }
}

TEST_F(SimdTierEquivalence, MarginChainBitIdentical) {
  const kernels::MarginChainParams p = test_margin_params();
  for (std::size_t n : kSizes) {
    auto sums = random_floats(n, n + 53);
    if (n > 1) sums[1] = 0.0f;  // tie lane inside a vector chunk.
    std::vector<double> zg_scalar(n), zg(n);
    std::vector<std::int32_t> flags_scalar(n), flags(n);
    {
      ScopedSimd scoped(kernels::SimdTier::scalar);
      kernels::margin_chain(sums, p, zg_scalar, flags_scalar);
    }
    ScopedSimd scoped(kernels::SimdTier::avx2);
    kernels::margin_chain(sums, p, zg, flags);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(flags[i], flags_scalar[i]) << "n=" << n << " i=" << i;
      ASSERT_EQ(zg[i], zg_scalar[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdTierEquivalence, ResolveWordBitIdentical) {
  const ResolveCase cs = make_resolve_case(128, 61);
  std::vector<kernels::WordVerdict> scalar;
  {
    ScopedSimd scoped(kernels::SimdTier::scalar);
    scalar = resolve_case(cs);
  }
  ScopedSimd scoped(kernels::SimdTier::avx2);
  const auto avx2 = resolve_case(cs);
  for (std::size_t wi = 0; wi < scalar.size(); ++wi)
    expect_same(avx2[wi], scalar[wi], wi);
}

}  // namespace
}  // namespace simra::dram
