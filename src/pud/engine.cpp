#include "pud/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "pud/program_builders.hpp"

namespace simra::pud {

using bender::CommandKind;
using bender::Program;

Engine::Engine(dram::Chip* chip) : chip_(chip), executor_(chip) {
  if (chip_ == nullptr) throw std::invalid_argument("engine needs a chip");
  const std::size_t columns = chip_->profile().geometry.columns;
  neutral_[0] = BitVec(columns, false);
  neutral_[1] = BitVec(columns, true);
}

dram::RowAddr Engine::global_of(dram::SubarrayId sa,
                                dram::RowAddr local) const {
  return programs::global_row(sa, layout().rows(), local);
}

std::optional<Program>& Engine::row_program(RowProgram kind,
                                            dram::BankId bank) {
  if (bank >= row_programs_.size()) row_programs_.resize(bank + 1);
  return row_programs_[bank][kind];
}

void Engine::write_row(dram::BankId bank, dram::RowAddr global_row,
                       const BitVec& data) {
  std::optional<Program>& p = row_program(kWriteRow, bank);
  if (!p) p = programs::write_row(chip_->profile(), bank, global_row, data);
  executor_.run(p->repoint(global_row, &data));
}

BitVec Engine::read_row(dram::BankId bank, dram::RowAddr global_row) {
  return read_row_prefix(bank, global_row,
                         chip_->profile().geometry.columns);
}

BitVec Engine::read_row_prefix(dram::BankId bank, dram::RowAddr global_row,
                               std::size_t nbits) {
  std::optional<Program>& p = row_program(kReadRow, bank);
  // The RD length is built in; a different prefix rebuilds.
  const auto reads_nbits = [nbits](const Program& built) {
    for (const bender::TimedCommand& c : built.commands())
      if (c.kind == CommandKind::kRd) return c.nbits == nbits;
    return false;
  };
  if (!p || !reads_nbits(*p))
    p = programs::read_row(chip_->profile(), bank, global_row, nbits);
  auto result = executor_.run(p->repoint(global_row));
  return std::move(result.reads.front());
}

void Engine::frac(dram::BankId bank, dram::RowAddr global_row) {
  std::optional<Program>& p = row_program(kFrac, bank);
  if (!p) p = programs::frac(chip_->profile(), bank, global_row);
  executor_.run(p->repoint(global_row));
}

void Engine::rowclone(dram::BankId bank, dram::RowAddr src_global,
                      dram::RowAddr dst_global) {
  executor_.run(
      programs::rowclone(chip_->profile(), bank, src_global, dst_global));
}

Program Engine::apa_program(dram::BankId bank, dram::RowAddr rf_global,
                            dram::RowAddr rs_global, ApaTimings timings,
                            bool read_buffer) const {
  return programs::apa(chip_->profile(), bank, rf_global, rs_global, timings,
                       read_buffer);
}

void Engine::multi_row_copy(dram::BankId bank, dram::SubarrayId sa,
                            const RowGroup& group, ApaTimings timings) {
  executor_.run(apa_program(bank, global_of(sa, group.row_first),
                            global_of(sa, group.row_second), timings,
                            /*read_buffer=*/false));
}

BitVec Engine::apa(dram::BankId bank, dram::SubarrayId sa,
                   const RowGroup& group, ApaTimings timings) {
  auto result =
      executor_.run(apa_program(bank, global_of(sa, group.row_first),
                                global_of(sa, group.row_second), timings,
                                /*read_buffer=*/true));
  return std::move(result.reads.front());
}

void Engine::apa_then_write(dram::BankId bank, dram::SubarrayId sa,
                            const RowGroup& group, const BitVec& data,
                            ApaTimings timings) {
  executor_.run(programs::apa_then_write(
      chip_->profile(), bank, global_of(sa, group.row_first),
      global_of(sa, group.row_second), data, timings));
}

void Engine::stage_neutral(dram::BankId bank, const programs::MajxRow& row) {
  if (row.fill == programs::MajxFill::kFrac) {
    frac(bank, row.global);
  } else {
    write_row(bank, row.global,
              neutral_[row.fill == programs::MajxFill::kOnes]);
  }
}

BitVec Engine::majx(dram::BankId bank, dram::SubarrayId sa,
                    const RowGroup& group, const MajxConfig& config) {
  if (config.x < 3 || config.x % 2 == 0)
    throw std::invalid_argument("MAJX needs an odd operand count >= 3");
  if (config.operands.size() != config.x)
    throw std::invalid_argument("operand count does not match X");
  programs::for_each_majx_row(
      chip_->profile(), layout().rows(), sa, group, config.operands.size(),
      [&](const programs::MajxRow& row) {
        if (row.fill == programs::MajxFill::kOperand) {
          write_row(bank, row.global, config.operands[row.operand]);
        } else {
          stage_neutral(bank, row);
        }
      });
  return apa(bank, sa, group, config.timings);
}

BitVec Engine::majx_from_rows(dram::BankId bank, dram::SubarrayId sa,
                              const RowGroup& group,
                              std::span<const dram::RowAddr> operand_rows,
                              ApaTimings timings) {
  const auto x = static_cast<unsigned>(operand_rows.size());
  if (x < 3 || x % 2 == 0)
    throw std::invalid_argument("MAJX needs an odd operand count >= 3");
  if (group.size() < x)
    throw std::invalid_argument("group smaller than the operand count");

  // Staging overwrites the group rows, so operand rows inside the group
  // would be clobbered before they are read.
  for (dram::RowAddr op : operand_rows) {
    if (std::binary_search(group.rows.begin(), group.rows.end(), op))
      throw std::invalid_argument(
          "operand rows must live outside the activation group");
  }

  programs::for_each_majx_row(
      chip_->profile(), layout().rows(), sa, group, x,
      [&](const programs::MajxRow& row) {
        if (row.fill == programs::MajxFill::kOperand) {
          rowclone(bank, global_of(sa, operand_rows[row.operand]),
                   row.global);
        } else {
          stage_neutral(bank, row);
        }
      });
  return apa(bank, sa, group, timings);
}

BitVec Engine::in_dram_and(dram::BankId bank, dram::SubarrayId sa,
                           const RowGroup& group, const BitVec& a,
                           const BitVec& b) {
  MajxConfig config;
  config.x = 3;
  config.operands = {a, b, BitVec(chip_->profile().geometry.columns, false)};
  return majx(bank, sa, group, config);
}

BitVec Engine::in_dram_or(dram::BankId bank, dram::SubarrayId sa,
                          const RowGroup& group, const BitVec& a,
                          const BitVec& b) {
  MajxConfig config;
  config.x = 3;
  config.operands = {a, b, BitVec(chip_->profile().geometry.columns, true)};
  return majx(bank, sa, group, config);
}

Nanoseconds Engine::write_row_latency() const {
  const auto& t = chip_->profile().timings;
  Program p;
  p.act(0, 0).delay_at_least(t.tRCD).wr(0, 0, BitVec(8)).delay_at_least(t.tWR)
      .pad_after_last(bender::CommandKind::kAct, t.tRAS)
      .pre(0).delay_at_least(t.tRP);
  return Nanoseconds{p.duration_ns()};
}

Nanoseconds Engine::rowclone_latency() const {
  const auto& t = chip_->profile().timings;
  Program p;
  p.act(0, 0).delay_at_least(t.tRAS).pre(0).delay(Nanoseconds{6.0}).act(0, 1)
      .delay_at_least(t.tRAS).pre(0).delay_at_least(t.tRP);
  return Nanoseconds{p.duration_ns()};
}

Nanoseconds Engine::frac_latency() const {
  const auto& t = chip_->profile().timings;
  Program p;
  p.act(0, 0).delay(Nanoseconds{1.5}).pre(0).delay_at_least(t.tRP);
  return Nanoseconds{p.duration_ns()};
}

Nanoseconds Engine::multi_row_copy_latency(ApaTimings timings) const {
  return Nanoseconds{
      apa_program(0, 0, 1, timings, /*read_buffer=*/false).duration_ns()};
}

Nanoseconds Engine::majx_apa_latency(ApaTimings timings) const {
  return Nanoseconds{
      apa_program(0, 0, 1, timings, /*read_buffer=*/false).duration_ns()};
}

}  // namespace simra::pud
