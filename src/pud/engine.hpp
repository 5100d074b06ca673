#pragma once

#include <array>
#include <optional>
#include <vector>

#include "bender/executor.hpp"
#include "common/bitvec.hpp"
#include "common/units.hpp"
#include "dram/chip.hpp"
#include "pud/row_group.hpp"

namespace simra::pud {

namespace programs {
struct MajxRow;
}

/// Timing delays of the ACT -> PRE -> ACT sequence (§3.2): t1 between ACT
/// and PRE, t2 between PRE and ACT. Both must be multiples of the 1.5 ns
/// command slot.
struct ApaTimings {
  Nanoseconds t1{1.5};
  Nanoseconds t2{3.0};

  /// Best timings found by the characterization for each operation.
  static ApaTimings best_for_majx() { return {Nanoseconds{1.5}, Nanoseconds{3.0}}; }
  static ApaTimings best_for_smra() { return {Nanoseconds{3.0}, Nanoseconds{3.0}}; }
  static ApaTimings best_for_multi_row_copy() {
    return {Nanoseconds{36.0}, Nanoseconds{3.0}};
  }
};

/// Configuration of an in-DRAM majority operation (§3.3).
struct MajxConfig {
  unsigned x = 3;               ///< operand count; odd, >= 3.
  std::vector<BitVec> operands; ///< exactly `x` row-wide operand vectors.
  ApaTimings timings = ApaTimings::best_for_majx();
};

/// High-level Processing-Using-DRAM engine: issues carefully timed command
/// programs against one chip to perform RowClone, Frac, MAJX and
/// Multi-RowCopy operations — the paper's §3 methodology as a library.
///
/// All data-carrying steps go through the real command interface (ACT/WR/
/// RD/PRE at nominal timings); only the PUD step itself violates timings.
class Engine {
 public:
  explicit Engine(dram::Chip* chip);

  dram::Chip& chip() noexcept { return *chip_; }
  bender::Executor& executor() noexcept { return executor_; }
  const dram::PredecoderLayout& layout() const { return chip_->layout(); }

  // --- Plain data access at nominal timings ---

  /// Writes a full row (ACT, WR, PRE with nominal delays).
  void write_row(dram::BankId bank, dram::RowAddr global_row,
                 const BitVec& data);
  /// Reads a full row.
  BitVec read_row(dram::BankId bank, dram::RowAddr global_row);
  /// Reads only the first `nbits` of a row (cheap probing reads for
  /// reverse-engineering sweeps).
  BitVec read_row_prefix(dram::BankId bank, dram::RowAddr global_row,
                         std::size_t nbits);

  // --- PUD operations ---

  /// The Frac operation [FracDRAM]: ACT -> immediate PRE leaves the row's
  /// cells at ~VDD/2, making it a neutral row for MAJX.
  void frac(dram::BankId bank, dram::RowAddr global_row);

  /// Intra-subarray RowClone via consecutive activation (t2 = 6 ns):
  /// copies src to dst. Rows must share a subarray.
  void rowclone(dram::BankId bank, dram::RowAddr src_global,
                dram::RowAddr dst_global);

  /// Multi-RowCopy (§3.4): copies group.row_first's content to every other
  /// row of the group with one APA. Destination count = group.size() - 1.
  void multi_row_copy(dram::BankId bank, dram::SubarrayId sa,
                      const RowGroup& group,
                      ApaTimings timings = ApaTimings::best_for_multi_row_copy());

  /// MAJX with input replication (§3.3): places the X operands replicated
  /// floor(N/X) times across the group, initializes N%X neutral rows
  /// (Frac, or all-0s/all-1s emulation on Frac-less vendors), performs the
  /// APA, and returns the row buffer (the MAJX result).
  BitVec majx(dram::BankId bank, dram::SubarrayId sa, const RowGroup& group,
              const MajxConfig& config);

  /// MAJX whose operands already live in DRAM rows of the same subarray:
  /// the operand rows are staged into the activation group with RowClone
  /// (no host data movement), the APA fires, and the row buffer is
  /// returned. `operand_rows` are subarray-local; their count is X.
  BitVec majx_from_rows(dram::BankId bank, dram::SubarrayId sa,
                        const RowGroup& group,
                        std::span<const dram::RowAddr> operand_rows,
                        ApaTimings timings = ApaTimings::best_for_majx());

  /// Ambit-style in-DRAM bulk Boolean ops: MAJ3(a, b, control) where the
  /// control operand is all-0s (AND) or all-1s (OR), replicated across
  /// the group like any MAJX input.
  BitVec in_dram_and(dram::BankId bank, dram::SubarrayId sa,
                     const RowGroup& group, const BitVec& a, const BitVec& b);
  BitVec in_dram_or(dram::BankId bank, dram::SubarrayId sa,
                    const RowGroup& group, const BitVec& a, const BitVec& b);

  /// Issues only the APA sequence plus a nominal-timing WR of `data` while
  /// the rows are open — the §3.2 simultaneous many-row activation test
  /// step. The bank is precharged afterwards.
  void apa_then_write(dram::BankId bank, dram::SubarrayId sa,
                      const RowGroup& group, const BitVec& data,
                      ApaTimings timings);

  /// Raw APA; returns the row buffer after restore and precharges.
  BitVec apa(dram::BankId bank, dram::SubarrayId sa, const RowGroup& group,
             ApaTimings timings);

  // --- Latency accessors (program durations; for the cost models) ---

  Nanoseconds write_row_latency() const;
  Nanoseconds rowclone_latency() const;
  Nanoseconds frac_latency() const;
  Nanoseconds multi_row_copy_latency(
      ApaTimings timings = ApaTimings::best_for_multi_row_copy()) const;
  Nanoseconds majx_apa_latency(
      ApaTimings timings = ApaTimings::best_for_majx()) const;

  /// Converts a subarray-local row to a bank-global address.
  dram::RowAddr global_of(dram::SubarrayId sa, dram::RowAddr local) const;

 private:
  bender::Program apa_program(dram::BankId bank, dram::RowAddr rf_global,
                              dram::RowAddr rs_global, ApaTimings timings,
                              bool read_buffer) const;

  /// The one-row programs write_row, read_row_prefix and frac run: one
  /// built program per (kind, bank), re-pointed at each call's row and
  /// payload (bender::Program::repoint) instead of rebuilt. Per bank
  /// because the bank is in every command and in frac's intents.
  enum RowProgram : std::size_t { kWriteRow, kReadRow, kFrac, kRowPrograms };
  std::optional<bender::Program>& row_program(RowProgram kind,
                                              dram::BankId bank);
  /// Stages a neutral row of the MAJX sequence: Frac, or the all-0s or
  /// all-1s fill on Frac-less vendors.
  void stage_neutral(dram::BankId bank, const programs::MajxRow& row);

  dram::Chip* chip_;
  bender::Executor executor_;
  std::vector<std::array<std::optional<bender::Program>, kRowPrograms>>
      row_programs_;
  BitVec neutral_[2];  ///< Frac-less neutral fills: all 0s, all 1s.
};

}  // namespace simra::pud
