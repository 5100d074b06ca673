#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bender/program.hpp"
#include "common/bitvec.hpp"
#include "dram/vendor.hpp"
#include "pud/engine.hpp"
#include "pud/row_group.hpp"

namespace simra::pud::programs {

/// Free-function builders for the per-operation command programs the
/// `pud::Engine` issues. Each returns exactly the program the engine's
/// corresponding method runs — same commands, same slots, same intents,
/// same name — so any layer that replays them (the engine serially, the
/// serve batch compiler fused) produces byte-identical chip behaviour by
/// construction. The engine delegates here; nothing is duplicated.

/// Subarray-local row to bank-global address (`rows_per_subarray` is
/// `PredecoderLayout::rows()`).
dram::RowAddr global_row(dram::SubarrayId sa, std::size_t rows_per_subarray,
                         dram::RowAddr local);

/// ACT, WR(full row), PRE at nominal timings.
bender::Program write_row(const dram::VendorProfile& profile,
                          dram::BankId bank, dram::RowAddr global_row,
                          BitVec data);

/// ACT, RD of the first `nbits`, PRE at nominal timings.
bender::Program read_row(const dram::VendorProfile& profile, dram::BankId bank,
                         dram::RowAddr global_row, std::size_t nbits);

/// The Frac operation: ACT -> immediate PRE leaves the cells at ~VDD/2.
bender::Program frac(const dram::VendorProfile& profile, dram::BankId bank,
                     dram::RowAddr global_row);

/// Intra-subarray RowClone via consecutive activation (t2 = 6 ns).
bender::Program rowclone(const dram::VendorProfile& profile, dram::BankId bank,
                         dram::RowAddr src_global, dram::RowAddr dst_global);

/// The APA (ACT -> PRE -> ACT) sequence, optionally reading the row
/// buffer back before the final precharge.
bender::Program apa(const dram::VendorProfile& profile, dram::BankId bank,
                    dram::RowAddr rf_global, dram::RowAddr rs_global,
                    ApaTimings timings, bool read_buffer);

/// APA followed by a nominal-timing WR while the rows stay open (§3.2's
/// simultaneous-activation test step).
bender::Program apa_then_write(const dram::VendorProfile& profile,
                               dram::BankId bank, dram::RowAddr rf_global,
                               dram::RowAddr rs_global, BitVec data,
                               ApaTimings timings);

/// What one row of the MAJX staging sequence receives.
enum class MajxFill : std::uint8_t {
  kOperand,  ///< a replica of operand `MajxRow::operand`.
  kFrac,     ///< a true neutral row at VDD/2.
  kZeros,    ///< Frac-less neutral emulation: all 0s, alternating with...
  kOnes,     ///< ...all 1s, starting with all 0s.
};

/// One row of the MAJX staging sequence.
struct MajxRow {
  dram::RowAddr global = 0;
  MajxFill fill = MajxFill::kOperand;
  std::size_t operand = 0;  ///< operand index, for kOperand.
};

/// The MAJX staging order (§3.3), decided here and nowhere else: R_F
/// first (it must carry data — a Frac'd R_F would be re-sensed and
/// destroyed by the first ACT), then the rest of the group in address
/// order; the `x` operands replicate floor(N/x) times, and the N%x
/// leftover rows become neutral rows (Frac, or on Frac-less vendors,
/// Mfr. M fn. 5, alternating all-0s/all-1s rows; an odd leftover row
/// biases the bitline by a full cell — the structural reason MAJ9 fails
/// there). Calls `visit(const MajxRow&)` once per group row, after
/// throwing std::invalid_argument unless `x` is odd, >= 3 and at most
/// the group size. Allocates nothing.
template <class Visit>
void for_each_majx_row(const dram::VendorProfile& profile,
                       std::size_t rows_per_subarray, dram::SubarrayId sa,
                       const RowGroup& group, std::size_t x, Visit&& visit) {
  if (x < 3 || x % 2 == 0)
    throw std::invalid_argument("MAJX needs an odd operand count >= 3");
  if (group.size() < x)
    throw std::invalid_argument("group smaller than the operand count");
  const std::size_t data_rows = group.size() / x * x;
  std::size_t i = 0;
  bool ones = false;
  const auto stage = [&](dram::RowAddr local) {
    MajxRow row;
    row.global = global_row(sa, rows_per_subarray, local);
    if (i < data_rows) {
      row.operand = i % x;
    } else if (profile.supports_frac) {
      row.fill = MajxFill::kFrac;
    } else {
      row.fill = ones ? MajxFill::kOnes : MajxFill::kZeros;
      ones = !ones;
    }
    ++i;
    visit(row);
  };
  stage(group.row_first);
  for (dram::RowAddr r : group.rows)
    if (r != group.row_first) stage(r);
}

/// The staging sequence of for_each_majx_row as one program per row, in
/// staging order: write_row of the operand or of the all-0s/all-1s fill,
/// or frac. The APA itself is built with `apa()`.
std::vector<bender::Program> majx_staging(const dram::VendorProfile& profile,
                                          std::size_t rows_per_subarray,
                                          dram::BankId bank,
                                          dram::SubarrayId sa,
                                          const RowGroup& group,
                                          std::span<const BitVec> operands);

}  // namespace simra::pud::programs
