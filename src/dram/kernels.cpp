#include "dram/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/env.hpp"
#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/kernels_simd.hpp"
#include "dram/process_variation.hpp"

namespace simra::dram::kernels {

namespace {

constexpr std::size_t kWordBits = 64;

/// -1 = not yet resolved from the environment; test overrides win.
std::atomic<int> g_tier{-1};

SimdTier resolve_tier() {
  const std::string mode = env_string("SIMRA_SIMD", "auto");
  if (mode == "scalar") return SimdTier::scalar;
  // "avx2" and "auto" both want the vector tier; the difference is only
  // intent, and an unsupported machine degrades to scalar either way.
  return avx2_supported() ? SimdTier::avx2 : SimdTier::scalar;
}

/// m ranges over [0, 2^53): the 53 high bits of a hash.
constexpr std::uint64_t kUniformSteps = 1ULL << 53;

}  // namespace

bool avx2_supported() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return avx2::compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdTier active_simd() noexcept {
  const int cached = g_tier.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<SimdTier>(cached);
  const SimdTier tier = resolve_tier();
  int expected = -1;
  g_tier.compare_exchange_strong(expected, static_cast<int>(tier),
                                 std::memory_order_relaxed);
  return tier;
}

void set_simd_for_test(std::optional<SimdTier> tier) noexcept {
  if (tier && *tier == SimdTier::avx2 && !avx2_supported()) return;
  g_tier.store(tier ? static_cast<int>(*tier) : -1,
               std::memory_order_relaxed);
}

const char* simd_name(SimdTier tier) noexcept {
  return tier == SimdTier::avx2 ? "avx2" : "scalar";
}

void hashed_code_fill(std::uint64_t prefix, std::span<std::uint8_t> out) {
  std::size_t i = 0;
  if (active_simd() == SimdTier::avx2) i = avx2::hashed_code_fill(prefix, out);
  for (; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(hash_combine(prefix, i) >> 56);
}

std::uint64_t uniform_threshold_index(float u_eff) noexcept {
  std::uint64_t lo = 0;
  std::uint64_t hi = kUniformSteps;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (static_cast<float>(uniform_from_hash(mid << 11)) < u_eff)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

std::uint64_t tied_code_bits(std::uint64_t prefix, std::size_t base,
                             std::uint64_t tied, std::uint64_t t) noexcept {
  std::uint64_t below = 0;
  for (; tied != 0; tied &= tied - 1) {
    const int b = std::countr_zero(tied);
    below |= static_cast<std::uint64_t>(
                 (hash_combine(prefix, base + static_cast<std::size_t>(b)) >>
                  11) < t)
             << b;
  }
  return below;
}

BitVec code_threshold_mask(std::uint64_t prefix,
                           std::span<const std::uint8_t> codes, float u_eff) {
  const std::size_t n = codes.size();
  const std::uint64_t t = uniform_threshold_index(u_eff);
  // Every m is below 2^53, whose code (256) no byte can hold.
  if (t == kUniformSteps) return BitVec(n, true);
  BitVec mask(n);
  std::size_t wi = 0;
  if (active_simd() == SimdTier::avx2)
    wi = avx2::code_threshold_words(prefix, codes, t, mask);
  const auto code = static_cast<std::uint8_t>(t >> 45);
  for (std::size_t c = wi * kWordBits; c < n; ++wi) {
    std::uint64_t below = 0;
    std::uint64_t tied = 0;
    const std::size_t limit = std::min(kWordBits, n - c);
    for (std::size_t b = 0; b < limit; ++b, ++c) {
      below |= static_cast<std::uint64_t>(codes[c] < code) << b;
      tied |= static_cast<std::uint64_t>(codes[c] == code) << b;
    }
    mask.set_word(wi, below | tied_code_bits(prefix, wi * kWordBits, tied, t));
  }
  return mask;
}

BitVec latch_race_mask(std::span<const float> race, double latch_fraction) {
  BitVec mask(race.size());
  const std::size_t n = race.size();
  if (active_simd() == SimdTier::avx2) {
    // The transcendental stays scalar (bit-identity with libm); only the
    // compare + pack stage vectorizes, one stack-resident word chunk at a
    // time so the hot loop never allocates.
    alignas(32) double cdf[kWordBits];
    std::size_t c = 0;
    for (std::size_t wi = 0; c < n; ++wi) {
      const std::size_t limit = std::min(kWordBits, n - c);
      for (std::size_t b = 0; b < limit; ++b) cdf[b] = normal_cdf(race[c + b]);
      mask.set_word(wi, avx2::compare_lt_word(cdf, limit, latch_fraction));
      c += limit;
    }
    return mask;
  }
  std::size_t c = 0;
  for (std::size_t wi = 0; c < n; ++wi) {
    std::uint64_t word = 0;
    const std::size_t limit = std::min(kWordBits, n - c);
    for (std::size_t b = 0; b < limit; ++b, ++c)
      word |= static_cast<std::uint64_t>(normal_cdf(race[c]) < latch_fraction)
              << b;
    mask.set_word(wi, word);
  }
  return mask;
}

BitVec offset_noise_mask(std::span<const float> offsets,
                         std::span<const double> noise, double noise_scale) {
  if (offsets.size() != noise.size())
    throw std::invalid_argument("offset/noise span size mismatch");
  BitVec mask(offsets.size());
  if (active_simd() == SimdTier::avx2) {
    avx2::offset_noise_mask(offsets, noise, noise_scale, mask);
    return mask;
  }
  const std::size_t n = offsets.size();
  std::size_t c = 0;
  for (std::size_t wi = 0; c < n; ++wi) {
    std::uint64_t word = 0;
    const std::size_t limit = std::min(kWordBits, n - c);
    for (std::size_t b = 0; b < limit; ++b, ++c)
      word |= static_cast<std::uint64_t>(offsets[c] + noise_scale * noise[c] >
                                         0.0)
              << b;
    mask.set_word(wi, word);
  }
  return mask;
}

std::size_t lag8_disagreement(const BitVec& v, std::size_t& total) {
  const std::size_t n = v.size();
  if (n <= 8) return 0;
  // Sampled positions c = 0, 16, 32, ... with c + 8 < n. Within a word the
  // sample bits are {0, 16, 32, 48} and their lag-8 partners {8, 24, 40,
  // 56} never cross the word boundary, so diff = word ^ (word >> 8) holds
  // every sampled comparison.
  constexpr std::uint64_t kSampleBits = 0x0001'0001'0001'0001ULL;
  const std::size_t last_sample = ((n - 9) / 16) * 16;  // largest valid c.
  std::size_t disagree = 0;
  const auto& words = v.words();
  std::size_t wi = 0;
  if (active_simd() == SimdTier::avx2) {
    // Words whose four sample bits are all valid (base + 48 <=
    // last_sample) take the vector path; the boundary word falls through
    // to the scalar loop below.
    const std::size_t full =
        last_sample >= 48 ? (last_sample - 48) / kWordBits + 1 : 0;
    disagree += avx2::lag8_full_words(words.data(), full);
    wi = full;
  }
  for (; wi * kWordBits <= last_sample; ++wi) {
    const std::uint64_t word = words[wi];
    const std::uint64_t diff = word ^ (word >> 8);
    std::uint64_t sample = kSampleBits;
    const std::size_t base = wi * kWordBits;
    if (base + 48 > last_sample) {
      sample = 0;
      for (std::size_t b = 0; b < kWordBits; b += 16)
        if (base + b <= last_sample) sample |= 1ULL << b;
    }
    disagree += static_cast<std::size_t>(std::popcount(diff & sample));
  }
  total += last_sample / 16 + 1;
  return disagree;
}

void count_planes(std::span<const BitVec* const> rows, std::size_t words,
                  std::span<std::uint64_t> planes) {
  const auto n_planes = static_cast<std::size_t>(std::bit_width(rows.size()));
  if (n_planes > 6 || planes.size() < n_planes * words)
    throw std::invalid_argument("count_planes: > 63 rows or too few planes");
  // The AVX2 tier takes the words in groups of four; the rest run here.
  std::size_t wi = 0;
  if (active_simd() == SimdTier::avx2)
    wi = avx2::count_planes_quads(rows, words, planes);
  std::uint64_t acc[6];
  for (; wi < words; ++wi) {
    std::fill_n(acc, n_planes, 0);
    for (const BitVec* row : rows)
      bitslice_add(std::span(acc, n_planes), row->words()[wi]);
    for (std::size_t p = 0; p < n_planes; ++p) planes[p * words + wi] = acc[p];
  }
}

void hashed_normal_fill(std::uint64_t prefix, std::span<float> out) {
  if (active_simd() == SimdTier::avx2) {
    avx2::hashed_normal_fill(prefix, out);
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<float>(
        inverse_normal_cdf(uniform_from_hash(hash_combine(prefix, i))));
}

void counter_normal_fill(std::uint64_t prefix, std::uint64_t base,
                         std::span<double> out) {
  if (active_simd() == SimdTier::avx2) {
    avx2::counter_normal_fill(prefix, base, out);
    return;
  }
  // The exact math of Rng::CounterStream::at (rng.cpp), per index.
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] =
        inverse_normal_cdf(uniform_from_hash(hash_combine(prefix, base + i)));
}

void margin_chain(std::span<const float> sums, const MarginChainParams& p,
                  std::span<double> zg, std::span<std::int32_t> flags) {
  if (zg.size() != sums.size() || flags.size() != sums.size())
    throw std::invalid_argument("margin_chain table size mismatch");
  if (active_simd() == SimdTier::avx2) {
    avx2::margin_chain(sums, p, zg, flags);
    return;
  }
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const double sum = sums[i];
    if (std::abs(sum) < 1e-9) {
      flags[i] = kClassTie;
      zg[i] = 0.0;
      continue;
    }
    flags[i] = sum > 0.0 ? kClassMajorityOne : 0;
    const double x =
        p.gain * std::pow(std::abs(sum) / (p.cap_ratio + p.n_connected),
                          p.margin_exponent);
    const double z = (x - p.threshold) / p.noise_denominator - p.z_penalty +
                     p.vendor_shift;
    zg[i] = z / p.g;
  }
}

float float_threshold(double zg) noexcept {
  const auto t = static_cast<float>(zg);
  return static_cast<double>(t) < zg
             ? std::nextafter(t, std::numeric_limits<float>::infinity())
             : t;
}

WordVerdict resolve_word(const float* zetas, const float* polarities,
                         std::span<const ClassPart> parts) {
  if (active_simd() == SimdTier::avx2)
    return avx2::resolve_word(zetas, polarities, parts);
  WordVerdict v;
  std::uint64_t majority = 0;
  for (const ClassPart& part : parts) {
    if ((part.flags & kClassTie) != 0) {
      v.ties |= part.mask;
      continue;
    }
    std::uint64_t stable = 0;
    for (std::uint64_t m = part.mask; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      stable |= static_cast<std::uint64_t>(zetas[b] < part.threshold) << b;
    }
    v.stable |= stable;
    if ((part.flags & kClassMajorityOne) != 0) majority |= stable;
  }
  std::uint64_t positive = 0;
  for (std::size_t b = 0; b < kWordBits; ++b)
    positive |= static_cast<std::uint64_t>(polarities[b] > 0.0f) << b;
  v.resolved = majority | (positive & ~v.stable & ~v.ties);
  return v;
}

}  // namespace simra::dram::kernels
