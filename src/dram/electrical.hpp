#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dram/process_variation.hpp"
#include "dram/types.hpp"
#include "dram/vendor.hpp"

namespace simra::dram {

/// Operating environment of a chip, set through the testbed's temperature
/// controller and VPP power supply (§3.1).
struct EnvironmentState {
  Celsius temperature{50.0};
  Volts vpp{2.5};
};

/// Quantified consequences of a simultaneous activation's (t1, t2); which
/// regime an ACT -> PRE -> ACT falls into is BankStepper's decision.
struct ApaDecision {
  /// Fraction of bitlines whose SA managed to latch the source value:
  /// 0 before sense enable (a charge share, MAJ), partial for
  /// intermediate t1 (Obs. 15), 1 for a clean Multi-RowCopy.
  double latch_fraction = 1.0;
  /// Extra charge-share weight of the first-activated row (Obs. 7 hyp. 1).
  double first_row_extra_weight = 0.0;
  /// Charge-transfer weight of the second-group rows (< 1 when t2 is too
  /// short for the wordlines to assert fully).
  double second_group_weight = 1.0;
  /// Per-row probability that a second-group wordline fails to assert
  /// (t2 = 1.5 ns weak re-latch; lower whiskers of Fig 3).
  double row_dropout_probability = 0.0;
  /// Normalized margin penalty applied to WR overdrive (SMRA test).
  double smra_z_penalty = 0.0;
  /// Normalized margin penalty applied to charge-share sensing (MAJX).
  double majx_z_penalty = 0.0;
};

/// One row participating in a charge-share resolution.
struct ConnectedRow {
  RowAddr local_row = 0;
  const BitVec* data = nullptr;  ///< nullptr = Frac row at VDD/2.
  double weight = 1.0;           ///< charge-transfer weight.
};

/// Stable coordinates of the bitline population being resolved, used to
/// key the persistent process-variation deviates.
struct BitlineContext {
  BankId bank = 0;
  SubarrayId subarray = 0;
  /// Hash identifying the simultaneously activated row set (group quality).
  std::uint64_t group_key = 0;
  std::size_t columns = 0;
};

/// Output of a charge-share resolution.
struct ChargeShareResult {
  BitVec resolved;       ///< value latched by each sense amplifier.
  BitVec stable;         ///< bit set where the outcome is deterministic.
  std::size_t ties = 0;  ///< columns with exactly zero net imbalance.
};

/// Process-wide recycle statistics of the span free-list (SpanPool):
/// `hits` = fills served from a recycled block, `misses` = fresh
/// allocations (first-touch page faults). Monotone counters, also exported
/// as `dram/span_pool_hit` / `dram/span_pool_miss` obs counters and a
/// host-manifest field, so span-reuse regressions show up in metrics.
struct SpanPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double recycle_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};
SpanPoolStats span_pool_stats() noexcept;

/// The analog behaviour model: charge sharing, sensing margins, write
/// overdrive, and copy stability, with persistent process variation.
///
/// All success statistics in the characterization flow through the three
/// resolve/stability entry points below; see calibration.hpp for the
/// provenance of every constant.
class ElectricalModel {
 public:
  ElectricalModel(const VendorProfile* profile, const VariationField* variation);

  /// Classifies an APA timing pair against the vendor's milestones.
  ApaDecision classify_apa(Nanoseconds t1, Nanoseconds t2) const;

  /// Resolves the sense amplifiers for a simultaneous charge share across
  /// `rows` (the MAJ regime). `pattern_noise` in [0, 0.5] is the
  /// bitline-coupling activity of the stored data (see
  /// pattern_coupling_fraction); `env` scales the charge gain. Unstable
  /// bitlines resolve to a per-trial coin flip drawn from `rng`.
  ChargeShareResult resolve_charge_share(const BitlineContext& ctx,
                                         std::span<const ConnectedRow> rows,
                                         double pattern_noise,
                                         const EnvironmentState& env,
                                         const ApaDecision& apa,
                                         Rng& rng) const;

  /// Per-cell stability of a WR overdrive into `group_rows` simultaneously
  /// open rows (the §3.2 SMRA experiment). Returns, for one destination
  /// row, the mask of cells that accept the written value. The reference
  /// aliases the internal mask memo: use it before the next electrical
  /// call (copy if it must outlive one).
  const BitVec& write_overdrive_mask(const BitlineContext& ctx,
                                     RowAddr local_row,
                                     unsigned differing_fields,
                                     const EnvironmentState& env,
                                     const ApaDecision& apa) const;

  /// Per-cell stability of an SA-driven copy into one destination row
  /// (Multi-RowCopy / RowClone regime). `n_dest` is the total number of
  /// destination rows in the operation; `source` is the data being driven.
  /// Same aliasing rule as write_overdrive_mask.
  const BitVec& copy_stable_mask(const BitlineContext& ctx, RowAddr dest_row,
                                 std::size_t n_dest, const BitVec& source,
                                 const EnvironmentState& env) const;

  /// Whether the sense amplifier of column `c` had latched the source
  /// value before the second ACT connected the other rows (persistent
  /// per bitline; the fraction of latched bitlines is apa.latch_fraction).
  /// Scalar reference for `latched_mask` — prefer the batched form on hot
  /// paths: each call here re-resolves the full deviate span.
  bool bitline_latched(const BitlineContext& ctx, std::size_t column,
                       const ApaDecision& apa) const;

  /// All columns' latch-race outcomes at once: bit c set iff
  /// bitline_latched(ctx, c, apa). Kept in the mask memo under the race
  /// span and the latch_fraction bits — the race deviates are persistent
  /// and the threshold only depends on the APA timing, so repeated trials
  /// reuse the mask.
  BitVec latched_mask(const BitlineContext& ctx, const ApaDecision& apa) const;

  /// Resolves sensing of a single Frac (VDD/2) row: each SA falls to its
  /// bias/offset side. Deterministic per bitline for biased designs
  /// (Mfr. M); for unbiased ones the per-trial thermal noise comes from
  /// the chip's counter-based noise stream (`noise`), whose draws are
  /// indexable pure functions of the stream key — so the batch fill is
  /// SIMD-dispatched and invariant to chunking and thread schedule.
  BitVec sense_frac_row(const BitlineContext& ctx,
                        Rng::CounterStream& noise) const;

  /// Measures the coupling activity of the data about to be shared:
  /// byte-periodic (fixed) patterns cancel along the bitline run, aperiodic
  /// (random) data does not. Returns a value in [0, 0.5].
  static double estimate_pattern_noise(std::span<const ConnectedRow> rows);

  const VendorProfile& profile() const noexcept { return *profile_; }

 private:
  /// Identity of one persistent span of the variation field: entry i is
  /// the (salt, k1, k2, i) deviate, kept as a normal float (the span memo)
  /// or as its hash code (the code memo of the threshold masks); the salts
  /// of the two never meet. Keyed by the whole tuple rather than a folded
  /// digest, so hash collisions are harmless: equal keys are equal spans.
  struct SpanKey {
    std::uint64_t salt = 0;
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    std::size_t count = 0;
    bool operator==(const SpanKey&) const = default;
  };
  /// A threshold or latch-race mask: the span it compares, plus the bits
  /// of the threshold it compares against.
  using MaskKey = std::pair<SpanKey, std::uint64_t>;
  struct KeyHash {
    std::size_t operator()(const SpanKey& k) const noexcept;
    std::size_t operator()(const MaskKey& k) const noexcept;
  };

  double group_quality(const BitlineContext& ctx, std::uint64_t salt) const;

  /// The span `key` names. The caller shares the block, so a memo reset
  /// by a later lookup in the same operation never frees a span that is
  /// still being read.
  std::shared_ptr<const float[]> span(const SpanKey& key) const;

  /// `zeta < z_eff` stability mask over the deviates `key` names, for
  /// write_overdrive_mask and copy_stable_mask: the trial loops
  /// re-request the same (row, threshold) point every trial. Computed from
  /// the row's column codes (kernels::code_threshold_mask), which a new
  /// threshold on a known row reuses.
  const BitVec& threshold_mask_cached(const SpanKey& key, float z_eff) const;

  /// Stores a freshly computed mask and returns the stored copy.
  const BitVec& remember(const MaskKey& key, BitVec mask) const;

  const VendorProfile* profile_;
  const VariationField* variation_;
  /// The model's three memos of pure functions of the variation field:
  /// the characterization sweeps re-touch the same rows thousands of
  /// times. Each is cleared wholesale when it reaches its cap, which a
  /// sweep's working set stays well under. Per-model only: every key
  /// carries its (bank, subarray) and sibling slot models sample different
  /// ones, so a chip-level memo of spans or masks almost never hits (0.5 %
  /// of span lookups on the Fig. 3 fleet sweep) and is deliberately absent.
  mutable std::unordered_map<SpanKey, std::shared_ptr<const float[]>, KeyHash>
      spans_;
  /// One byte per column (kernels::hashed_code_fill) for each threshold
  /// mask row.
  mutable std::unordered_map<SpanKey, std::unique_ptr<std::uint8_t[]>,
                             KeyHash>
      codes_;
  mutable std::unordered_map<MaskKey, BitVec, KeyHash> masks_;
};

/// Hash of a sorted activated-row set, for group-quality keying.
std::uint64_t group_key_of(std::span<const RowAddr> rows);

}  // namespace simra::dram
