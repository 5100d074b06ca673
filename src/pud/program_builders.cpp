#include "pud/program_builders.hpp"

#include <stdexcept>

namespace simra::pud::programs {

using bender::CommandKind;
using bender::Program;

dram::RowAddr global_row(dram::SubarrayId sa, std::size_t rows_per_subarray,
                         dram::RowAddr local) {
  return static_cast<dram::RowAddr>(sa) *
             static_cast<dram::RowAddr>(rows_per_subarray) +
         local;
}

Program write_row(const dram::VendorProfile& profile, dram::BankId bank,
                  dram::RowAddr global_row, BitVec data) {
  const auto& t = profile.timings;
  Program p;
  p.set_name("write_row");
  p.act(bank, global_row)
      .delay_at_least(t.tRCD)
      .wr(bank, 0, std::move(data))
      .delay_at_least(t.tWR)
      .pad_after_last(CommandKind::kAct, t.tRAS)
      .pre(bank)
      .delay_at_least(t.tRP);
  return p;
}

Program read_row(const dram::VendorProfile& profile, dram::BankId bank,
                 dram::RowAddr global_row, std::size_t nbits) {
  const auto& t = profile.timings;
  Program p;
  p.set_name("read_row");
  p.act(bank, global_row)
      .delay_at_least(t.tRCD)
      .rd(bank, 0, nbits)
      .delay_at_least(t.tCCD)
      .pad_after_last(CommandKind::kAct, t.tRAS)
      .pre(bank)
      .delay_at_least(t.tRP);
  return p;
}

Program frac(const dram::VendorProfile& profile, dram::BankId bank,
             dram::RowAddr global_row) {
  const auto& t = profile.timings;
  Program p;
  p.set_name("frac").expect(verify::frac_intents(static_cast<int>(bank)));
  // ACT -> PRE long before the sense amplifiers fire: the cells are left
  // half charge-shared at ~VDD/2.
  p.act(bank, global_row)
      .delay(Nanoseconds{1.5})
      .pre(bank)
      .delay_at_least(t.tRP);
  return p;
}

Program rowclone(const dram::VendorProfile& profile, dram::BankId bank,
                 dram::RowAddr src_global, dram::RowAddr dst_global) {
  const auto& t = profile.timings;
  Program p;
  p.set_name("rowclone")
      .expect(verify::rowclone_intents(static_cast<int>(bank)));
  // Full tRAS lets the SA latch the source; t2 = 6 ns de-asserts the
  // source wordline but leaves the bitlines un-precharged -> the second
  // ACT overwrites dst with the SA contents (consecutive activation).
  p.act(bank, src_global)
      .delay_at_least(t.tRAS)
      .pre(bank)
      .delay(Nanoseconds{6.0})
      .act(bank, dst_global)
      .delay_at_least(t.tRAS)
      .pre(bank)
      .delay_at_least(t.tRP);
  return p;
}

Program apa(const dram::VendorProfile& profile, dram::BankId bank,
            dram::RowAddr rf_global, dram::RowAddr rs_global,
            ApaTimings timings, bool read_buffer) {
  const auto& t = profile.timings;
  const std::size_t columns = profile.geometry.columns;
  Program p;
  p.set_name("apa").expect(verify::apa_intents(static_cast<int>(bank)));
  p.act(bank, rf_global)
      .delay(timings.t1)
      .pre(bank)
      .delay(timings.t2)
      .act(bank, rs_global)
      .delay_at_least(t.tRAS);
  if (read_buffer) p.rd(bank, 0, columns).delay_at_least(t.tCCD);
  p.pre(bank).delay_at_least(t.tRP);
  return p;
}

Program apa_then_write(const dram::VendorProfile& profile, dram::BankId bank,
                       dram::RowAddr rf_global, dram::RowAddr rs_global,
                       BitVec data, ApaTimings timings) {
  const auto& t = profile.timings;
  Program p;
  p.set_name("apa_then_write")
      .expect(verify::apa_intents(static_cast<int>(bank)));
  p.act(bank, rf_global)
      .delay(timings.t1)
      .pre(bank)
      .delay(timings.t2)
      .act(bank, rs_global)
      .delay_at_least(t.tRCD)
      .wr(bank, 0, std::move(data))
      .delay_at_least(t.tWR)
      .pad_after_last(CommandKind::kAct, t.tRAS)
      .pre(bank)
      .delay_at_least(t.tRP);
  return p;
}

std::vector<Program> majx_staging(const dram::VendorProfile& profile,
                                  std::size_t rows_per_subarray,
                                  dram::BankId bank, dram::SubarrayId sa,
                                  const RowGroup& group,
                                  std::span<const BitVec> operands) {
  std::vector<Program> staged;
  staged.reserve(group.size());
  for_each_majx_row(
      profile, rows_per_subarray, sa, group, operands.size(),
      [&](const MajxRow& row) {
        switch (row.fill) {
          case MajxFill::kOperand:
            staged.push_back(
                write_row(profile, bank, row.global, operands[row.operand]));
            break;
          case MajxFill::kFrac:
            staged.push_back(frac(profile, bank, row.global));
            break;
          case MajxFill::kZeros:
          case MajxFill::kOnes:
            staged.push_back(write_row(
                profile, bank, row.global,
                BitVec(profile.geometry.columns,
                       row.fill == MajxFill::kOnes)));
            break;
        }
      });
  return staged;
}

}  // namespace simra::pud::programs
