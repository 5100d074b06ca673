#include "bender/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "bender/command_encoding.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/analyzer.hpp"
#include "verify/lint.hpp"

namespace simra::bender {

namespace {

using dram::PowerOp;

/// Command-slot span for the observability trace: the command as issued
/// (virtual time, nominal per-kind duration) with its bank/row or
/// bank/column operands. Virtual timestamps make the recorded trace a
/// pure function of the program, independent of scheduling. `task` is
/// the run's scoped buffer (looked up once per program), or nullptr for
/// the unscoped harness stream.
void trace_command(const TimedCommand& cmd, double t,
                   const dram::TimingParams& timings, obs::TaskBuffer* task) {
  obs::CommandSpan span;
  span.ts_ns = t;
  span.bank = static_cast<std::int32_t>(cmd.bank);
  switch (cmd.kind) {
    case CommandKind::kAct:
      span.name = "ACT";
      span.dur_ns = static_cast<float>(timings.tRCD.value);
      span.op = static_cast<std::uint32_t>(cmd.row);
      break;
    case CommandKind::kPre:
      span.name = cmd.a10 ? "PREA" : "PRE";
      span.dur_ns = static_cast<float>(timings.tRP.value);
      break;
    case CommandKind::kWr:
      span.name = "WR";
      span.dur_ns = static_cast<float>(timings.tCCD.value);
      span.op = static_cast<std::uint32_t>(cmd.col);
      break;
    case CommandKind::kRd:
      span.name = "RD";
      span.dur_ns = static_cast<float>(timings.tCCD.value);
      span.op = static_cast<std::uint32_t>(cmd.col);
      break;
    case CommandKind::kRef:
      span.name = "REF";
      span.dur_ns = static_cast<float>(timings.tRFC.value);
      span.bank = -1;
      break;
  }
  if (task != nullptr) {
    task->record_command(span);
  } else {
    obs::record_command(span);
  }
}

double command_energy(const TimedCommand& cmd, const dram::Chip& chip,
                      double n_open_rows) {
  // Rough per-command energy from the average-power model; command
  // durations follow the nominal timings.
  const auto& t = chip.profile().timings;
  switch (cmd.kind) {
    case CommandKind::kAct:
      return dram::PowerModel::energy_pj(
          PowerOp::kManyRowActivation, Nanoseconds{t.tRCD.value},
          static_cast<std::size_t>(n_open_rows > 0 ? n_open_rows : 1));
    case CommandKind::kPre:
      return dram::PowerModel::energy_pj(PowerOp::kActPre,
                                         Nanoseconds{t.tRP.value}) *
             0.5;
    case CommandKind::kWr:
      return dram::PowerModel::energy_pj(PowerOp::kWrite,
                                         Nanoseconds{t.tCCD.value});
    case CommandKind::kRd:
      return dram::PowerModel::energy_pj(PowerOp::kRead,
                                         Nanoseconds{t.tCCD.value});
    case CommandKind::kRef:
      return dram::PowerModel::energy_pj(PowerOp::kRefresh,
                                         Nanoseconds{t.tRFC.value});
  }
  return 0.0;
}

/// Flips one bit of the 27-bit command word: pins 0..4 are the control
/// strobes (CS_n, ACT_n, RAS_n, CAS_n, WE_n), 5..22 the address bits
/// A0..A17, 23..24 BG[1:0], 25..26 BA[1:0].
void flip_command_pin(PinState& pins, int pin) {
  switch (pin) {
    case 0: pins.cs_n = !pins.cs_n; return;
    case 1: pins.act_n = !pins.act_n; return;
    case 2: pins.ras_n = !pins.ras_n; return;
    case 3: pins.cas_n = !pins.cas_n; return;
    case 4: pins.we_n = !pins.we_n; return;
    default: break;
  }
  if (pin < 23) {
    pins.address ^= 1u << (pin - 5);
  } else if (pin < 25) {
    pins.bank_group ^= static_cast<std::uint8_t>(1u << (pin - 23));
  } else {
    pins.bank ^= static_cast<std::uint8_t>(1u << (pin - 25));
  }
}

}  // namespace

Executor::Executor(dram::Chip* chip) : chip_(chip) {
  if (chip_ == nullptr) throw std::invalid_argument("executor needs a chip");
}

void Executor::execute_one(const TimedCommand& cmd, double t,
                           ExecutionResult& result) {
  dram::Bank& bank = chip_->bank(cmd.bank);
  switch (cmd.kind) {
    case CommandKind::kAct:
      bank.act(cmd.row, t);
      break;
    case CommandKind::kPre:
      if (cmd.a10) {
        // PREA: A10 high precharges every bank.
        for (std::size_t b = 0; b < chip_->bank_count(); ++b)
          chip_->bank(static_cast<dram::BankId>(b)).pre(t);
      } else {
        bank.pre(t);
      }
      break;
    case CommandKind::kWr:
      bank.write(cmd.col, cmd.data, t);
      if (cmd.a10) bank.pre(t);  // auto-precharge after the column access.
      break;
    case CommandKind::kRd:
      result.reads.push_back(bank.read(cmd.col, cmd.nbits, t));
      if (cmd.a10) bank.pre(t);
      break;
    case CommandKind::kRef:
      for (std::size_t b = 0; b < chip_->bank_count(); ++b)
        chip_->bank(static_cast<dram::BankId>(b)).refresh(t);
      break;
  }
  result.energy_pj += command_energy(
      cmd, *chip_, static_cast<double>(bank.open_row_count()));
}

/// The injected-fault command path. Dropped or corrupted commands never
/// crash the host: RD payloads the chip did not produce are replaced with
/// deterministic garbage so the burst framing (one payload per original
/// RD) survives, addresses are clamped into the device's ranges, and
/// jittered issue times are clamped to stay monotonic.
void Executor::run_faulty(const TimedCommand& cmd, ExecutionResult& result) {
  const fault::TransportDecision d = faults_->next_transport(kCommandWordBits);
  double t = clock_ns_ + cmd.time_ns() +
             static_cast<double>(d.jitter_slots) * kSlotNs;
  t = std::max(t, last_issue_ns_);
  last_issue_ns_ = t;

  const auto push_garbage = [&] {
    if (cmd.kind != CommandKind::kRd) return;
    BitVec garbage(cmd.nbits);
    for (std::size_t w = 0; w < garbage.word_count(); ++w)
      garbage.set_word(w, faults_->garbage_word());
    result.reads.push_back(std::move(garbage));
  };

  if (!d.deliver) {
    push_garbage();
    return;
  }

  if (d.flip_pin < 0) {
    const int copies = d.duplicate ? 2 : 1;
    for (int i = 0; i < copies; ++i) {
      if (cmd.kind == CommandKind::kRd) {
        // A duplicated RD produces two bursts on the bus; the host keeps
        // only the one it asked for.
        try {
          BitVec payload = chip_->bank(cmd.bank).read(cmd.col, cmd.nbits, t);
          if (i == 0) result.reads.push_back(std::move(payload));
        } catch (const std::logic_error&) {
          // RD against a closed bank (an earlier ACT was dropped): the
          // bus returns garbage, not an abort.
          if (i == 0) push_garbage();
        }
        result.energy_pj += command_energy(cmd, *chip_, 0.0);
      } else {
        execute_one(cmd, t, result);
      }
    }
    return;
  }

  // Corrupted command word: encode, flip the faulted pin, decode what the
  // chip actually latches.
  PinState pins = CommandEncoder::encode(cmd);
  flip_command_pin(pins, d.flip_pin);
  const CommandEncoder::Decoded decoded = CommandEncoder::decode(pins);
  const auto& geom = chip_->profile().geometry;
  const dram::BankId bank_id =
      static_cast<dram::BankId>(decoded.bank % chip_->bank_count());
  dram::Bank& bank = chip_->bank(bank_id);
  const int copies = d.duplicate ? 2 : 1;
  using Kind = CommandEncoder::Decoded::Kind;
  for (int i = 0; i < copies; ++i) {
    switch (decoded.kind) {
      case Kind::kDeselect:
      case Kind::kUnknown:
        // The chip sees no (or an illegal) command; nothing executes.
        break;
      case Kind::kActivate:
        bank.act(decoded.row % geom.rows_per_bank, t);
        break;
      case Kind::kPrecharge:
        bank.pre(t);
        break;
      case Kind::kPrechargeAll:
        for (std::size_t b = 0; b < chip_->bank_count(); ++b)
          chip_->bank(static_cast<dram::BankId>(b)).pre(t);
        break;
      case Kind::kRefresh:
        for (std::size_t b = 0; b < chip_->bank_count(); ++b)
          chip_->bank(static_cast<dram::BankId>(b)).refresh(t);
        break;
      case Kind::kRead: {
        const std::size_t nbits =
            cmd.kind == CommandKind::kRd ? cmd.nbits : 64;
        std::size_t col = static_cast<std::size_t>(decoded.column) * 64;
        if (col + nbits > geom.columns)
          col = geom.columns >= nbits ? geom.columns - nbits : 0;
        try {
          BitVec payload = bank.read(
              static_cast<dram::ColAddr>(col),
              std::min(nbits, geom.columns), t);
          if (i == 0 && cmd.kind == CommandKind::kRd)
            result.reads.push_back(std::move(payload));
        } catch (const std::logic_error&) {
          if (i == 0) push_garbage();
        }
        // A flipped-high A10 turns the RD into RDA: the row closes.
        if (decoded.auto_precharge) bank.pre(t);
        break;
      }
      case Kind::kWrite: {
        const BitVec* data = cmd.kind == CommandKind::kWr ? &cmd.data : nullptr;
        BitVec garbage;
        if (data == nullptr) {
          garbage = BitVec(64);
          garbage.set_word(0, faults_->garbage_word());
          data = &garbage;
        }
        std::size_t col = static_cast<std::size_t>(decoded.column) * 64;
        if (col + data->size() > geom.columns)
          col = geom.columns >= data->size() ? geom.columns - data->size() : 0;
        bank.write(static_cast<dram::ColAddr>(col), *data, t);
        if (decoded.auto_precharge) bank.pre(t);
        break;
      }
    }
  }
  // The original RD's payload slot must be filled even when the flip
  // turned it into something else.
  if (decoded.kind != Kind::kRead && cmd.kind == CommandKind::kRd)
    push_garbage();
  result.energy_pj += command_energy(cmd, *chip_, 0.0);
}

verify::ProgramContext Executor::program_context() {
  if (!rule_table_) {
    rule_table_.emplace(verify::RuleTable::ddr4(chip_->profile().timings));
  }
  verify::ProgramContext ctx;
  ctx.table = &*rule_table_;
  ctx.layout = &chip_->layout();
  ctx.scrambler = &chip_->profile().scrambler;
  ctx.columns = chip_->profile().geometry.columns;
  ctx.gates_violated_timings = chip_->profile().gates_violated_timings;
  return ctx;
}

ExecutionResult Executor::run(const Program& program) {
  // Static analysis happens before any command reaches the (possibly
  // faulty) transport: the gate checks what the program *intends* to
  // issue, not what a bit-flip turns it into.
  verify::gate(program, chip_->profile().timings);
  last_opt_ = verify::OptStats{};
  const Program* to_run = &program;
  std::optional<Program> optimized;
  const verify::OptMode opt = verify::global_opt_mode();
  if (opt != verify::OptMode::kOff && !program.empty()) {
    const verify::ProgramContext ctx = program_context();
    verify::lint(program, ctx);
    // Transformation only where it is provably invisible: dead-command
    // elimination changes the chip's per-command RNG/fault draw sequence,
    // so any attached injector (transport or chip level) disables it.
    if (opt == verify::OptMode::kOn && faults_ == nullptr &&
        chip_->faults() == nullptr) {
      verify::Optimized result = verify::optimize(program, ctx);
      last_opt_ = result.stats;
      if (result.stats.removed_commands > 0 ||
          (result.stats.compacted &&
           result.stats.extent_after < result.stats.extent_before)) {
        optimized.emplace(std::move(result.program));
        to_run = &*optimized;
        // The optimizer must never manufacture a timing violation: the
        // transformed program passes the same gate as the original.
        verify::gate(*to_run, chip_->profile().timings);
        auto& registry = obs::MetricsRegistry::instance();
        registry.counter("verify.opt.programs").add_count(1);
        registry.counter("verify.opt.removed_commands")
            .add_count(last_opt_.removed_commands);
        registry.counter("verify.opt.slots_saved")
            .add_count(last_opt_.extent_before - last_opt_.extent_after);
        obs::emit_event(
            "program_opt",
            {{"program", program.name()},
             {"removed_commands",
              std::to_string(last_opt_.removed_commands)},
             {"extent_before", std::to_string(last_opt_.extent_before)},
             {"extent_after", std::to_string(last_opt_.extent_after)}});
      }
    }
  }
  ExecutionResult result;
  const bool faulty = faults_ != nullptr && faults_->spec().any_transport();
  const bool traced = obs::enabled();
  obs::TaskBuffer* const task = traced ? obs::current_task() : nullptr;
  for (const TimedCommand& cmd : to_run->commands()) {
    // The trace records the command as *issued* (pre-fault): a corrupted
    // transport changes what the chip latches, not what the span shows —
    // matching DRAM Bender's host-side command log.
    if (traced)
      trace_command(cmd, clock_ns_ + cmd.time_ns(),
                    chip_->profile().timings, task);
    if (faulty) {
      run_faulty(cmd, result);
    } else {
      const double t = clock_ns_ + cmd.time_ns();
      last_issue_ns_ = t;
      execute_one(cmd, t, result);
    }
  }
  result.duration_ns = to_run->duration_ns();
  clock_ns_ += result.duration_ns;
  return result;
}

void Executor::idle(Nanoseconds gap) {
  if (gap.value < 0.0) throw std::invalid_argument("idle gap must be >= 0");
  clock_ns_ += gap.value;
}

}  // namespace simra::bender
