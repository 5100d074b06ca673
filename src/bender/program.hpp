#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/units.hpp"
#include "dram/types.hpp"
#include "verify/intent.hpp"

namespace simra::bender {

/// The testbed can issue one DRAM command per FPGA command slot; slots are
/// 1.5 ns apart (the DRAM Bender limitation discussed in §9 Limitation 2 —
/// finer-grained control, e.g. 0.1 ns, is not possible).
inline constexpr double kSlotNs = 1.5;

enum class CommandKind : std::uint8_t {
  kAct,
  kPre,
  kWr,
  kRd,
  kRef,
};

std::string to_string(CommandKind kind);

/// One DRAM command scheduled at an absolute slot index within a program.
struct TimedCommand {
  std::uint64_t slot = 0;
  CommandKind kind = CommandKind::kAct;
  dram::BankId bank = 0;
  dram::RowAddr row = 0;
  dram::ColAddr col = 0;       ///< bit offset for WR/RD.
  std::size_t nbits = 0;       ///< read length for RD.
  BitVec data;                 ///< payload for WR.
  /// A10 high: PRE becomes precharge-all (PREA), RD/WR auto-precharge.
  bool a10 = false;

  double time_ns() const { return static_cast<double>(slot) * kSlotNs; }
};

/// A DRAM Bender-style command program: a time-annotated command sequence
/// built with an explicit cursor. Delays between commands are expressed in
/// nanoseconds and must be positive multiples of the 1.5 ns slot.
///
/// Example — the APA sequence of §3.2 with t1 = 3 ns, t2 = 3 ns:
///
///   Program p;
///   p.act(bank, row_first).delay(Nanoseconds{3})
///    .pre(bank).delay(Nanoseconds{3})
///    .act(bank, row_second);
class Program {
 public:
  Program& act(dram::BankId bank, dram::RowAddr row);
  Program& pre(dram::BankId bank);
  /// Precharge-all (A10 high): closes every open bank in one command.
  Program& prea();
  /// Writes `data` at bit offset `col` of the open row; with
  /// `auto_precharge` (A10 high, WRA) the bank closes after the access.
  Program& wr(dram::BankId bank, dram::ColAddr col, BitVec data,
              bool auto_precharge = false);
  /// Reads `nbits` at bit offset `col`; results are collected by the
  /// executor in command order. `auto_precharge` as for wr().
  Program& rd(dram::BankId bank, dram::ColAddr col, std::size_t nbits,
              bool auto_precharge = false);
  Program& ref();

  /// Advances the cursor. `delay` must be a positive multiple of 1.5 ns;
  /// anything else throws (the hardware cannot schedule it).
  Program& delay(Nanoseconds delay);

  /// Advances the cursor so the *next* command lands at least the given
  /// delay (rounded up to the next slot) after the last command. Unlike
  /// delay(), exact slot alignment is irrelevant; unlike naive cursor
  /// arithmetic, an unoccupied cursor already partway through the gap
  /// counts towards it, so an exact slot multiple never over-advances.
  Program& delay_at_least(Nanoseconds delay);

  /// Ensures the next command lands at least `delay` after the most recent
  /// command of `kind` (rounded up to slots); no-ops when the gap is
  /// already satisfied, throws std::logic_error when no such command
  /// exists. Use to respect nominal timing measured from a specific
  /// earlier command, e.g. `.pad_after_last(CommandKind::kAct, t.tRAS)`
  /// before a PRE.
  Program& pad_after_last(CommandKind kind, Nanoseconds delay);

  /// Appends another program's commands after this one's cursor: every
  /// appended command keeps its relative slot offset, declared intents
  /// carry over, and the cursor advances by the appended program's cursor
  /// extent. The caller is responsible for inter-program spacing (e.g.
  /// `delay_at_least(tRP)` / `pad_after_last(kAct, tFAW)` before the
  /// append) — append itself inserts no gap beyond slot alignment, which
  /// is what lets a batch scheduler fuse many per-op programs into one
  /// without perturbing any intra-op timing.
  Program& append(const Program& other);

  /// Declares an intended timing violation (see simra::verify): findings
  /// matching a declared intent are classified kIntended by the analyzer.
  Program& expect(verify::Intent intent);
  Program& expect(const std::vector<verify::Intent>& intents);

  /// Names the program for verify diagnostics ("fig3_apa", ...).
  Program& set_name(std::string name);

  /// Re-points a built one-row program at another row: every ACT opens
  /// `row` and, given a `payload`, every WR writes a copy of it. Slots,
  /// extent, name and intents stay as they are, so a program re-pointed
  /// from one row's build equals the build for the new row and payload
  /// whenever the builder's schedule does not depend on either (the
  /// engine's write_row, read_row and frac). A WR payload no larger than
  /// the one it replaces is copied into the same storage.
  Program& repoint(dram::RowAddr row, const BitVec* payload = nullptr);

  const std::string& name() const noexcept { return name_; }
  const std::vector<verify::Intent>& intents() const noexcept { return intents_; }

  const std::vector<TimedCommand>& commands() const noexcept { return commands_; }
  std::uint64_t cursor_slot() const noexcept { return cursor_; }
  double duration_ns() const;
  bool empty() const noexcept { return commands_.empty(); }

  /// Total slot extent (the slot count duration_ns() is derived from):
  /// one past the last occupied slot when a command sits at the cursor.
  std::uint64_t extent_slots() const noexcept {
    return cursor_occupied_ ? cursor_ + 1 : cursor_;
  }

  /// Rebuilds a program carrying `original`'s name and intents but a
  /// re-scheduled command list and cursor extent. This is the
  /// constructor of the verify optimizer (slot compaction / dead-command
  /// elimination); it is header-inline because simra_verify may not
  /// reference simra_bender symbols (the link goes the other way).
  /// `commands` must be slot-sorted with strictly increasing slots below
  /// `extent_slots`; callers (the optimizer) guarantee this.
  static Program rescheduled(const Program& original,
                             std::vector<TimedCommand> commands,
                             std::uint64_t extent_slots) {
    Program p;
    p.name_ = original.name_;
    p.intents_ = original.intents_;
    p.commands_ = std::move(commands);
    p.cursor_ = extent_slots;
    p.cursor_occupied_ = false;
    return p;
  }

  /// Human-readable listing (debugging aid, mirrors the Bender trace view).
  std::string to_string() const;

 private:
  Program& push(TimedCommand cmd);

  std::vector<TimedCommand> commands_;
  std::vector<verify::Intent> intents_;
  std::string name_;
  std::uint64_t cursor_ = 0;
  bool cursor_occupied_ = false;  ///< a command sits at the cursor slot.
};

}  // namespace simra::bender
