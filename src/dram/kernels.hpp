#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bitvec.hpp"

namespace simra::dram::kernels {

/// Word-parallel predicate kernels for the electrical model's per-column
/// hot path. Every kernel computes the exact same per-column math as the
/// scalar loop it replaces (same comparisons on the same values), packing
/// the 64 per-column results of each word with shifts instead of per-bit
/// BitVec::set calls — the value-preservation invariant the
/// golden-equivalence suite enforces.
///
/// Each kernel additionally carries an AVX2 implementation selected by
/// runtime dispatch (`active_simd()`); the vector paths replicate the
/// scalar operation order exactly (no FMA contraction, same IEEE
/// exactly-rounded mul/add/div sequence), so scalar and AVX2 runs are
/// bit-identical — enforced by the same golden suite under
/// SIMRA_SIMD=scalar vs avx2.

/// Instruction tier the kernels execute with.
enum class SimdTier { scalar, avx2 };

/// Whether this build + CPU can run the AVX2 paths (compiled in and
/// reported by cpuid).
bool avx2_supported() noexcept;

/// The resolved tier: `SIMRA_SIMD` = "scalar" forces scalar, "avx2"
/// requests AVX2 (falling back to scalar when unsupported), anything
/// else / unset auto-detects. Read once and cached; test overrides win.
SimdTier active_simd() noexcept;

/// Overrides (or with nullopt, restores) the cached dispatch decision.
/// A forced avx2 override on a non-AVX2 machine is ignored.
void set_simd_for_test(std::optional<SimdTier> tier) noexcept;

/// Lower-case tier name ("scalar", "avx2") for manifests and bench rows.
const char* simd_name(SimdTier tier) noexcept;

/// out[i] = hash_combine(prefix, i) >> 56: each column's hash code, the
/// top 8 bits of the 53 bits m that uniform_from_hash maps to
/// u = (m + 0.5) * 2^-53. One byte per column is what the threshold masks
/// of write_overdrive_mask and copy_stable_mask keep of their deviates.
void hashed_code_fill(std::uint64_t prefix, std::span<std::uint8_t> out);

/// The smallest T in [0, 2^53] with float(u(T)) >= u_eff, where
/// u(m) = uniform_from_hash(m << 11). float(u(m)) never decreases as m
/// grows, so float(u(m)) < u_eff holds exactly when m < T. A u_eff <= 0
/// or NaN gives 0, one above every float(u(m)) gives 2^53. Computed from
/// the midpoint between u_eff and the float below it, then moved onto T
/// by the predicate itself (at most a step or two).
std::uint64_t uniform_threshold_index(float u_eff) noexcept;

/// mask[c] = float(uniform_from_hash(hash_combine(prefix, c))) < u_eff,
/// from the codes hashed_code_fill(prefix, codes) wrote: with
/// T = uniform_threshold_index(u_eff), a code below T >> 45 sets the bit
/// and one above clears it; the ~1/256 of columns whose code equals
/// T >> 45 are re-hashed and compared as m < T.
BitVec code_threshold_mask(std::uint64_t prefix,
                           std::span<const std::uint8_t> codes, float u_eff);

/// mask[c] = (normal_cdf(race[c]) < latch_fraction): which sense
/// amplifiers won the latch race at a partial latch fraction.
BitVec latch_race_mask(std::span<const float> race, double latch_fraction);

/// mask[c] = (offsets[c] + noise_scale * noise[c] > 0): sense-amplifier
/// offset plus per-trial thermal noise (the Frac-row sensing kernel).
BitVec offset_noise_mask(std::span<const float> offsets,
                         std::span<const double> noise, double noise_scale);

/// Lag-8 bit disagreement of `v`, sampled every 16th position c with
/// c + 8 < v.size(): returns the number of sampled disagreements and adds
/// the number of sampled positions to `total`. Word-shift/XOR equivalent
/// of probing get(c) != get(c + 8) bit by bit. Rows of <= 8 bits
/// contribute nothing (mirrors the scalar guard).
std::size_t lag8_disagreement(const BitVec& v, std::size_t& total);

/// Bit-sliced per-column counts of up to 63 rows over their first
/// `words` words: bit b of planes[p * words + wi] is bit p of the number
/// of `rows` whose word wi has bit b set. `planes` must hold
/// bit_width(rows.size()) * words entries and is overwritten; every row
/// must hold at least `words` words. The AVX2 tier adds four words per
/// step; the scalar tier calls bitslice_add once per row and word.
void count_planes(std::span<const BitVec* const> rows, std::size_t words,
                  std::span<std::uint64_t> planes);

/// out[i] = float(inverse_normal_cdf(uniform(hash_combine(prefix, i)))) —
/// the batched hashed-normal evaluation behind
/// VariationField::normal_fill, hoisted here so the splitmix64 rounds and
/// the inverse-CDF central branch can run vectorized. Bit-identical to
/// the scalar per-index calls at every tier.
void hashed_normal_fill(std::uint64_t prefix, std::span<float> out);

/// out[i] = inverse_normal_cdf(uniform_from_hash(hash_combine(prefix,
/// base + i))) in double precision — the SIMD-dispatched body of
/// Rng::CounterStream::fill (rng.hpp), bit-identical to its scalar
/// reference at every tier. `base` is the stream's reserved draw index,
/// so fill(N) and fill(N/2)+fill(N/2) produce the same doubles and any
/// chunking or thread schedule that preserves indices is value-invariant.
void counter_normal_fill(std::uint64_t prefix, std::uint64_t base,
                         std::span<double> out);

/// Parameters of the per-class sense-margin chain (the gain/pow/threshold
/// math of ElectricalModel::resolve_charge_share), captured once per
/// resolution.
struct MarginChainParams {
  double gain = 0.0;
  double g = 1.0;                ///< group quality divisor.
  double noise_denominator = 1.0;
  double threshold = 0.0;
  double vendor_shift = 0.0;
  double z_penalty = 0.0;        ///< APA-regime margin penalty.
  double n_connected = 0.0;      ///< rows sharing charge (incl. Frac rows).
  double cap_ratio = 0.0;
  double margin_exponent = 1.0;
};

/// margin_chain flag bits (one entry per sum class).
inline constexpr std::int32_t kClassTie = 1;          ///< |sum| < 1e-9.
inline constexpr std::int32_t kClassMajorityOne = 2;  ///< sum > 0.

/// Batched per-class margin chain: for every class sum,
///   tie (|sum| < 1e-9)  ->  flags = kClassTie, zg = 0
///   else                ->  flags = (sum > 0) ? kClassMajorityOne : 0,
///     x  = gain * pow(|sum| / (cap_ratio + n_connected), margin_exponent)
///     zg = ((x - threshold) / noise_denominator - z_penalty
///           + vendor_shift) / g
/// filling the class -> verdict table in one pass. std::pow stays scalar
/// (libm bit-identity) at every tier; the surrounding arithmetic
/// vectorizes. `zg` and `flags` must match `sums` in size.
void margin_chain(std::span<const float> sums, const MarginChainParams& p,
                  std::span<double> zg, std::span<std::int32_t> flags);

/// The smallest float >= zg, so that for every float zeta
///   zeta < float_threshold(zg)  <=>  double(zeta) < zg,
/// the resolve compare of the scalar loop: the float below the result is
/// < zg, and the result itself is >= zg. A zg above FLT_MAX maps to
/// +inf, a NaN to NaN.
float float_threshold(double zg) noexcept;

/// One weight class's columns of a 64-column word and the class's
/// margin_chain verdict.
struct ClassPart {
  std::uint64_t mask = 0;  ///< the word's columns in this class.
  float threshold = 0.0f;  ///< float_threshold of the class's zg.
  std::int32_t flags = 0;  ///< kClassTie / kClassMajorityOne.
};

/// Sense-amplifier verdicts of one 64-column word.
struct WordVerdict {
  std::uint64_t resolved = 0;
  std::uint64_t stable = 0;
  std::uint64_t ties = 0;
};

/// Resolves one 64-column word whose columns are split into disjoint
/// class parts, the per-column branch of the scalar resolve loop:
///   tie class                 -> ties bit (resolved 0; the caller flips
///                                the coins in ascending column order),
///   zetas[b] < threshold      -> stable, resolved = majority bit,
///   otherwise                 -> resolved = (polarities[b] > 0).
/// `zetas` and `polarities` point at the word's 64 values. A column in
/// no part resolves by polarity. The AVX2 tier loads the 64 zetas once
/// and runs one 8-lane compare per part.
WordVerdict resolve_word(const float* zetas, const float* polarities,
                         std::span<const ClassPart> parts);

/// One weight class's columns of a 64-column word, by class index: a part
/// of the charge-share resolve's class split. No member initializers: the
/// split keeps a 64-entry scratch array of these per word.
struct ClassMask {
  std::uint64_t mask;  ///< the word's columns in this class.
  std::uint32_t cls;   ///< the class index.
};

/// Adds each part's column count (its mask's set bits) to
/// counts[part.cls]: the column weights of the traced sense-margin tally.
/// The AVX2 tier counts with the popcnt instruction, which the baseline
/// ISA lacks.
void add_class_columns(std::span<const ClassMask> parts,
                       std::span<std::uint64_t> counts);

}  // namespace simra::dram::kernels
