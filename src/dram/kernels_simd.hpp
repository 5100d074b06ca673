#pragma once

#include <cstdint>
#include <span>

#include "common/bitvec.hpp"

namespace simra::dram::kernels {
struct ClassPart;
struct MarginChainParams;
struct WordVerdict;
}

/// Internal interface between the dispatching kernels (kernels.cpp) and
/// the AVX2 translation unit (kernels_avx2.cpp, compiled with -mavx2 and
/// -ffp-contract=off). Not installed; callers use dram/kernels.hpp.
///
/// Contract: every function here computes bit-identical results to the
/// scalar loop in kernels.cpp — same IEEE operation order, no fused
/// multiply-add — and is only invoked when `active_simd()` resolved to
/// SimdTier::avx2 (which implies `compiled()` and cpuid support).

namespace simra::dram::kernels::avx2 {

/// Whether this binary carries the AVX2 code paths at all (the TU is
/// always linked; on a toolchain without AVX2 support the kernels below
/// become unreachable aborts and this returns false).
bool compiled() noexcept;

/// Fills `mask` (already sized to zetas.size()) with zetas[c] < z_eff.
void threshold_mask(std::span<const float> zetas, float z_eff, BitVec& mask);

/// Packs values[b] < threshold for b in [0, limit) into one word
/// (limit <= 64). Used by latch_race_mask on a stack chunk of
/// scalar-computed normal CDF values: the transcendental stays scalar so
/// results match libm exactly; only compare + pack vectorize.
std::uint64_t compare_lt_word(const double* values, std::size_t limit,
                              double threshold);

/// Fills `mask` with offsets[c] + noise_scale * noise[c] > 0.
void offset_noise_mask(std::span<const float> offsets,
                       std::span<const double> noise, double noise_scale,
                       BitVec& mask);

/// Sum of popcount((w ^ (w >> 8)) & kSampleBits) over words[0..count),
/// kSampleBits = 0x0001'0001'0001'0001 — the full-word body of
/// lag8_disagreement (the boundary word stays with the caller).
std::size_t lag8_full_words(const std::uint64_t* words, std::size_t count);

/// The four-word groups of kernels::count_planes: the ripple-carry plane
/// add on four words per step. Returns the words done (a multiple of 4);
/// the caller counts the rest.
std::size_t count_planes_quads(std::span<const BitVec* const> rows,
                               std::size_t words,
                               std::span<std::uint64_t> planes);

/// Vectorized body of kernels::hashed_normal_fill (4 lanes of splitmix64,
/// uniform mapping, and the inverse-CDF central branch; tail-probability
/// lanes and the remainder fall back to the exact scalar routine).
void hashed_normal_fill(std::uint64_t prefix, std::span<float> out);

/// Vectorized body of kernels::hashed_uniform_fill (the splitmix64 and
/// uniform-mapping stages of hashed_normal_fill, no inverse CDF).
void hashed_uniform_fill(std::uint64_t prefix, std::span<float> out);

/// Vectorized body of kernels::counter_normal_fill: the hashed_normal_fill
/// machinery with a base draw offset and double-precision output (tail
/// lanes and the remainder fall back to the exact scalar routine).
void counter_normal_fill(std::uint64_t prefix, std::uint64_t base,
                         std::span<double> out);

/// Vectorized body of kernels::margin_chain (std::pow stays scalar per
/// class; the surrounding divide/subtract chain vectorizes).
void margin_chain(std::span<const float> sums, const MarginChainParams& p,
                  std::span<double> zg, std::span<std::int32_t> flags);

/// Vectorized body of kernels::resolve_word (the 64 zetas loaded once,
/// one 8-lane float compare per class part).
WordVerdict resolve_word(const float* zetas, const float* polarities,
                         std::span<const ClassPart> parts);

}  // namespace simra::dram::kernels::avx2
