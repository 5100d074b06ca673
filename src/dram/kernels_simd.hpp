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

namespace simra::dram::kernels {

/// The columns of a code_threshold_mask word whose code ties t >> 45:
/// bit b of the result is set iff bit b of `tied` is and
/// (hash_combine(prefix, base + b) >> 11) < t. Scalar, shared by both tiers.
std::uint64_t tied_code_bits(std::uint64_t prefix, std::size_t base,
                             std::uint64_t tied, std::uint64_t t) noexcept;

}  // namespace simra::dram::kernels

namespace simra::dram::kernels::avx2 {

/// Whether this binary carries the AVX2 code paths at all (the TU is
/// always linked; on a toolchain without AVX2 support the kernels below
/// become unreachable aborts and this returns false).
bool compiled() noexcept;

/// The full 64-column words of kernels::code_threshold_mask for a
/// threshold index t < 2^53: 32 unsigned byte compares against t >> 45
/// per instruction, then the tied columns through tied_code_bits. Returns
/// the words done; the caller masks the rest.
std::size_t code_threshold_words(std::uint64_t prefix,
                                 std::span<const std::uint8_t> codes,
                                 std::uint64_t t, BitVec& mask);

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

/// The groups of 32 codes of kernels::hashed_code_fill: the splitmix64
/// chain of hashed_normal_fill, then the lanes' top bytes packed down to
/// one 32-byte store. Returns the codes written (a multiple of 32); the
/// caller hashes the rest.
std::size_t hashed_code_fill(std::uint64_t prefix, std::span<std::uint8_t> out);

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
