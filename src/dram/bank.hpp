#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "dram/bank_stepper.hpp"
#include "dram/electrical.hpp"
#include "dram/predecoder.hpp"
#include "dram/subarray.hpp"
#include "dram/types.hpp"
#include "dram/vendor.hpp"

namespace simra::fault {
class ChipInjector;
}

namespace simra::dram {

/// Shared, chip-owned collaborators handed to each bank.
struct ChipContext {
  const VendorProfile* profile = nullptr;
  const PredecoderLayout* layout = nullptr;
  const ElectricalModel* electrical = nullptr;
  EnvironmentState* env = nullptr;
  Rng* rng = nullptr;
  /// Counter-based normal stream for frac-row sense noise. Stateless per
  /// draw index, so batched fills are chunking- and schedule-invariant;
  /// the stateful `rng` stays the source for everything sequential
  /// (tie coin flips, dropout, fault injection).
  Rng::CounterStream* noise = nullptr;
  /// Optional chip-fault injector (stuck-at / retention / disturbance).
  /// nullptr — the default — takes zero extra work on every path.
  fault::ChipInjector* faults = nullptr;
};

/// Counters of commands seen and protocol anomalies, used by the power
/// model and by tests asserting on regime classification.
struct CommandStats {
  std::uint64_t acts = 0;
  std::uint64_t pres = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t gated_commands = 0;       ///< vendor ignored a violated command.
  std::uint64_t ignored_commands = 0;     ///< command illegal in current phase.
  std::uint64_t simultaneous_activations = 0;
  std::uint64_t consecutive_activations = 0;
  std::uint64_t frac_events = 0;          ///< rows left at VDD/2 by early PRE.
};

/// One DRAM bank over lazily materialized subarrays. A BankStepper
/// decides what each command does (the APA regimes of §2.2/§6/§7.1) and
/// holds the decoder latches; the bank applies its verdicts to the cells,
/// delegating all analog resolution to the ElectricalModel.
///
/// Commands carry explicit nanosecond timestamps supplied by the host
/// (bender) layer; the bank enforces monotonicity only.
class Bank {
 public:
  Bank(BankId id, const ChipContext& ctx);

  Bank(const Bank&) = delete;
  Bank& operator=(const Bank&) = delete;

  /// ACTIVATE. Depending on the time since the preceding PRE, this either
  /// opens `row` normally, consecutively (RowClone regime), or
  /// simultaneously with the still-latched previous row set (SiMRA).
  void act(RowAddr row, double t_ns);

  /// PRECHARGE. Takes effect lazily: a following ACT within the precharge
  /// settle window interrupts it (§7.1 walk-through).
  void pre(double t_ns);

  /// Writes `data` at bit offset `start_bit` of the open row buffer and
  /// overdrives it into every simultaneously open row (per-cell success
  /// from the SMRA model). Ignored (with a violation count) if no row is
  /// open.
  void write(ColAddr start_bit, const BitVec& data, double t_ns);

  /// Reads `nbits` from the open row buffer. Throws if the bank is not
  /// open (reading a closed bank returns no data on real hardware).
  BitVec read(ColAddr start_bit, std::size_t nbits, double t_ns);

  /// REF (modelled for power accounting only). Requires a precharged bank.
  void refresh(double t_ns);

  bool is_open() const noexcept { return stepper_.open(); }
  /// Global row addresses currently open (asserted and driven).
  std::vector<RowAddr> open_rows() const;
  /// open_rows().size(), without building the list.
  std::size_t open_row_count() const noexcept {
    return is_open() ? stepper_.driven().size() : 0;
  }
  const BitVec& row_buffer() const noexcept { return row_buffer_; }

  /// Direct cell access for test setup and result inspection, bypassing
  /// the command interface (the equivalent of the paper's "initialize the
  /// subarray with a data pattern" steps done at nominal timings).
  BitVec& backdoor_row(RowAddr global_row);
  const BitVec& backdoor_row(RowAddr global_row) const;
  RowState backdoor_row_state(RowAddr global_row) const;

  Subarray& subarray(SubarrayId sa);
  const CommandStats& stats() const noexcept { return stats_; }
  BankId id() const noexcept { return id_; }

  SubarrayId subarray_of(RowAddr global_row) const;
  RowAddr local_of(RowAddr global_row) const;
  RowAddr global_of(SubarrayId sa, RowAddr local) const;

  /// Re-points the chip-fault injector (the chip owns installation; banks
  /// copy the context by value, so the chip pushes updates here).
  void set_faults(fault::ChipInjector* faults) noexcept {
    ctx_.faults = faults;
  }

 private:
  void check_time(double t_ns);
  /// Marks rows a cut-short precharge left at ~VDD/2.
  void close(const BankStepper::Released& closed);
  /// Applies stuck-at + retention faults to a row's cells at the moment
  /// the wordline asserts (sensing reads the decayed array state). No-op
  /// without an injector or with all chip rates at zero.
  void apply_cell_faults(Subarray& s, SubarrayId sa, RowAddr local);
  /// PuDHammer-style disturbance on the rows adjacent to the driven set,
  /// scaled by how many rows the APA left simultaneously asserted.
  void apply_apa_disturbance(Subarray& s);
  void open_single(RowAddr local, SubarrayId sa);
  void resolve_consecutive(RowAddr local, const BankStepper::ActVerdict& v);
  void resolve_simultaneous(RowAddr second_local,
                            const BankStepper::ActVerdict& v);
  BitlineContext bitline_ctx() const;
  const BitVec& write_mask_for(std::size_t open_index);

  BankId id_;
  ChipContext ctx_;
  std::unordered_map<SubarrayId, std::unique_ptr<Subarray>> subarrays_;

  BankStepper stepper_;
  std::vector<BitVec> write_masks_;  ///< lazy per-open-row WR overdrive masks.
  std::vector<ConnectedRow> connected_;  ///< resolve_simultaneous's rows.
  BitVec row_buffer_;
  unsigned differing_fields_ = 0;
  ApaDecision apa_;
  double t_last_cmd_ = -1.0;
  CommandStats stats_;
};

}  // namespace simra::dram
