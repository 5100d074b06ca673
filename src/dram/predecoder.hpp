#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dram/types.hpp"

namespace simra::dram {

/// Mixed-radix layout of the local wordline pre-decoders (paper §7.1).
///
/// A local row address is split into one digit per pre-decoder; the local
/// wordline for a row asserts when every pre-decoder asserts that row's
/// digit output. The paper's examined SK Hynix die uses five pre-decoders
/// over 9 address bits: A(RA[0]) with 2 outputs and B..E (RA[1:2]..RA[7:8])
/// with 4 outputs each (2*4*4*4*4 = 512 rows). Other die densities use
/// different fanout splits (e.g. 4^5 = 1024, 5*4*4*4*2 = 640).
///
/// Digit 0 is the least significant field: row = d0 + d1*f0 + d2*f0*f1 + ...
class PredecoderLayout {
 public:
  /// `fanouts[i]` is the number of outputs of pre-decoder i (>= 2 each).
  explicit PredecoderLayout(std::vector<unsigned> fanouts);

  /// Layout for a given subarray size; supports 512, 640 and 1024 rows
  /// (the sizes reverse-engineered in Table 1).
  static PredecoderLayout for_subarray_rows(std::size_t rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t field_count() const noexcept { return fanouts_.size(); }
  unsigned fanout(std::size_t field) const { return fanouts_.at(field); }

  /// Decomposes a local row address into per-pre-decoder digits.
  std::vector<unsigned> digits(RowAddr local_row) const;

  /// Recomposes a local row address from per-pre-decoder digits.
  RowAddr compose(std::span<const unsigned> digits) const;

  /// Number of pre-decoder fields in which two local rows differ. An APA
  /// with violated timing simultaneously activates 2^k rows, where k is
  /// this count (k = 0 means both ACTs target the same row).
  unsigned differing_fields(RowAddr a, RowAddr b) const;

  /// The set of rows activated by ACT a -> PRE -> ACT b with both latched:
  /// the cartesian product of {digit_a, digit_b} over all fields, sorted
  /// ascending. Size is 2^differing_fields(a, b).
  std::vector<RowAddr> activation_group(RowAddr a, RowAddr b) const;

  /// Picks a second row address such that activation_group(first, result)
  /// has exactly `group_size` rows (group_size must be a power of two up to
  /// 2^field_count()). Differing fields are chosen lowest-first.
  RowAddr partner_for_group_size(RowAddr first, std::size_t group_size) const;

 private:
  std::vector<unsigned> fanouts_;
  std::size_t rows_ = 0;
};

/// Latch state of one subarray's local wordline decoder. Models the
/// paper's hypothesis that each pre-decoder output is latched by ACT and
/// only de-asserted by a PRE that respects tRP.
class DecoderLatches {
 public:
  explicit DecoderLatches(const PredecoderLayout* layout);

  /// Latches the digits of `local_row` (an ACT command reaching stage 1).
  void latch(RowAddr local_row);

  /// Clears all latched outputs (a PRE that completes).
  void clear();

  bool any_latched() const noexcept;

  /// All local rows whose wordlines assert under the current latch state
  /// (cartesian product of per-field latched outputs), sorted ascending.
  std::vector<RowAddr> asserted_rows() const;
  /// The same rows into `rows`, replacing its contents in its storage.
  void asserted_rows(std::vector<RowAddr>& rows) const;

  /// Number of asserted wordlines without materializing them.
  std::size_t asserted_count() const noexcept;

 private:
  const PredecoderLayout* layout_;            // non-owning; outlives latches
  std::vector<std::uint32_t> latched_;        // per-field output bitmask
};

}  // namespace simra::dram
