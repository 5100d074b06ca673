#include "dram/bank.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "fault/injector.hpp"

namespace simra::dram {

namespace {
const ChipContext& checked(const ChipContext& ctx) {
  if (ctx.profile == nullptr || ctx.layout == nullptr ||
      ctx.electrical == nullptr || ctx.env == nullptr || ctx.rng == nullptr ||
      ctx.noise == nullptr)
    throw std::invalid_argument("bank requires a fully populated chip context");
  return ctx;
}
}  // namespace

Bank::Bank(BankId id, const ChipContext& ctx)
    : id_(id),
      ctx_(checked(ctx)),
      stepper_(ctx.layout, ctx.profile->timings.tRP.value,
               ctx.profile->gates_violated_timings) {}

SubarrayId Bank::subarray_of(RowAddr global_row) const {
  return static_cast<SubarrayId>(global_row / ctx_.layout->rows());
}

RowAddr Bank::local_of(RowAddr global_row) const {
  return static_cast<RowAddr>(global_row % ctx_.layout->rows());
}

RowAddr Bank::global_of(SubarrayId sa, RowAddr local) const {
  return static_cast<RowAddr>(sa) * static_cast<RowAddr>(ctx_.layout->rows()) + local;
}

Subarray& Bank::subarray(SubarrayId sa) {
  auto it = subarrays_.find(sa);
  if (it == subarrays_.end()) {
    it = subarrays_
             .emplace(sa, std::make_unique<Subarray>(ctx_.layout,
                                                     ctx_.profile->geometry.columns))
             .first;
  }
  return *it->second;
}

void Bank::check_time(double t_ns) {
  if (t_ns < t_last_cmd_)
    throw std::invalid_argument("command timestamps must be monotonic");
  t_last_cmd_ = t_ns;
}

BitlineContext Bank::bitline_ctx() const {
  BitlineContext ctx;
  ctx.bank = id_;
  ctx.subarray = stepper_.open_sa();
  ctx.group_key = group_key_of(stepper_.driven());
  ctx.columns = ctx_.profile->geometry.columns;
  return ctx;
}

void Bank::apply_cell_faults(Subarray& s, SubarrayId sa, RowAddr local) {
  fault::ChipInjector* inj = ctx_.faults;
  if (inj == nullptr || !inj->any_chip_faults()) return;
  BitVec& cells = s.row_data(local);
  inj->retention_flips(cells);
  if (const fault::StuckMask* sm =
          inj->stuck_mask(id_, global_of(sa, local), cells.size()))
    cells.assign_masked(sm->value, sm->mask);
}

void Bank::apply_apa_disturbance(Subarray& s) {
  fault::ChipInjector* inj = ctx_.faults;
  const std::span<const RowAddr> rows = stepper_.driven();
  if (inj == nullptr || rows.empty()) return;
  const auto [min_it, max_it] = std::minmax_element(rows.begin(), rows.end());
  const std::size_t driven = rows.size();
  if (*min_it > 0) inj->disturb_flips(driven, s.row_data(*min_it - 1));
  if (const RowAddr above = *max_it + 1; above < s.rows())
    inj->disturb_flips(driven, s.row_data(above));
}

void Bank::open_single(RowAddr local, SubarrayId sa) {
  Subarray& s = subarray(sa);
  write_masks_.clear();
  differing_fields_ = 0;
  apa_ = ApaDecision{};
  if (s.row_state(local) == RowState::kFrac) {
    // Sensing a VDD/2 row: each SA resolves to its offset/bias side and
    // restores that value into the cells (the basis of Frac-less neutral
    // rows and of SiMRA-based TRNGs).
    BitlineContext bctx = bitline_ctx();
    row_buffer_ = ctx_.electrical->sense_frac_row(bctx, *ctx_.noise);
    s.row_data(local) = row_buffer_;
    s.set_row_state(local, RowState::kValid);
  } else {
    apply_cell_faults(s, sa, local);
    row_buffer_ = s.row_data(local);
  }
}

void Bank::close(const BankStepper::Released& closed) {
  write_masks_.clear();
  if (!closed.frac) return;
  // PRE arrived before the sense amplifiers fired: the open cells were
  // left half charge-shared with the bitline -> ~VDD/2 (Frac, §2.2).
  Subarray& s = subarray(closed.sa);
  for (RowAddr local : closed.rows) {
    s.set_row_state(local, RowState::kFrac);
    ++stats_.frac_events;
  }
}

void Bank::act(RowAddr row, double t_ns) {
  check_time(t_ns);
  ++stats_.acts;
  if (row >= ctx_.profile->geometry.rows_per_bank)
    throw std::out_of_range("row address out of bank range");
  const SubarrayId sa = subarray_of(row);
  // The decoder drives the *internal* wordline; vendors may scramble the
  // in-subarray bits of the logical address the host sends.
  const RowAddr local = ctx_.profile->scrambler.to_internal(local_of(row));
  const BankStepper::ActVerdict v = stepper_.act(sa, local, t_ns);
  switch (v.kind) {
    case BankStepper::Act::kIgnored:
      ++stats_.ignored_commands;
      return;
    case BankStepper::Act::kGated:
      // Mfr. S: internal circuitry drops the violated PRE/ACT pair
      // (§9 Limitation 1) -- the original row simply stays open.
      ++stats_.gated_commands;
      return;
    case BankStepper::Act::kSingle:
      close(v.prior);
      open_single(local, sa);
      return;
    case BankStepper::Act::kConsecutive:
      resolve_consecutive(local, v);
      return;
    case BankStepper::Act::kSimultaneous:
      resolve_simultaneous(local, v);
      return;
  }
}

void Bank::resolve_consecutive(RowAddr local,
                               const BankStepper::ActVerdict& v) {
  // t2 past the wordline-settle point but short of tRP: the old wordline
  // de-asserted, the bitlines were *not* precharged, and the SA (if it had
  // latched) still drives the old value -> the newly opened row is
  // overwritten with the row buffer: the RowClone regime (§2.2, fn. 6).
  ++stats_.consecutive_activations;
  const BitVec source = row_buffer_;
  const SubarrayId sa = v.prior.sa;
  close(v.prior);
  open_single(local, sa);
  if (v.sa_latched) {
    // The destination's own charge lost the race: the still-driven SA
    // overwrites the destination cells with the source data. Per-cell
    // write-back stability follows the single-destination copy model.
    Subarray& s = subarray(sa);
    const BitlineContext bctx = bitline_ctx();
    const BitVec& stable =
        ctx_.electrical->copy_stable_mask(bctx, local, 1, source, *ctx_.env);
    BitVec& cells = s.row_data(local);
    // Write-back failures retain the destination's previous charge.
    cells.assign_masked(source, stable);
    row_buffer_ = cells;
  }
}

void Bank::resolve_simultaneous(RowAddr second_local,
                                const BankStepper::ActVerdict& v) {
  ++stats_.simultaneous_activations;
  const SubarrayId sa = v.prior.sa;
  Subarray& s = subarray(sa);
  if (s.row_state(second_local) != RowState::kFrac)
    apply_cell_faults(s, sa, second_local);
  apa_ = ctx_.electrical->classify_apa(Nanoseconds{v.t1}, Nanoseconds{v.t2});

  const RowAddr first_local = v.prior.rows.front();
  differing_fields_ = ctx_.layout->differing_fields(first_local, second_local);

  // Weakly re-latched decoders can drop individual second-group rows from
  // the asserted set (t2 = 1.5 ns).
  if (apa_.row_dropout_probability > 0.0) {
    stepper_.retain([&](RowAddr r) {
      return r == first_local ||
             !ctx_.rng->chance(apa_.row_dropout_probability);
    });
  }
  const std::span<const RowAddr> driven = stepper_.driven();
  write_masks_.clear();

  const BitVec source = row_buffer_;  // first row's data, held by the SAs.
  const BitlineContext bctx = bitline_ctx();

  // Charge-share resolution over the driven rows (the MAJ outcome on
  // bitlines whose SA had not latched the source).
  std::vector<ConnectedRow> rows;
  rows.reserve(driven.size());
  for (RowAddr r : driven) {
    ConnectedRow cr;
    cr.local_row = r;
    cr.data = s.row_state(r) == RowState::kFrac ? nullptr : &s.row_data(r);
    cr.weight = (r == first_local)
                    ? 1.0 + apa_.first_row_extra_weight
                    : apa_.second_group_weight;
    rows.push_back(cr);
  }
  const double pattern_noise = ElectricalModel::estimate_pattern_noise(rows);
  ChargeShareResult share = ctx_.electrical->resolve_charge_share(
      bctx, rows, pattern_noise, *ctx_.env, apa_, *ctx_.rng);

  // Blend with the SA-latched (copy) outcome per bitline. The latch-race
  // mask is resolved once for the whole operation instead of re-querying
  // bitline_latched() column by column (and row by row below).
  const std::size_t columns = ctx_.profile->geometry.columns;
  const std::size_t n_dest = driven.empty() ? 0 : driven.size() - 1;
  BitVec resolved = share.resolved;
  BitVec latched(columns);
  if (apa_.latch_fraction > 0.0) {
    latched = ctx_.electrical->latched_mask(bctx, apa_);
    resolved.assign_masked(source, latched);
  }

  // The SAs restore the resolved value into every driven row. On latched
  // (copy-driven) bitlines, per-cell write-back can fail (Multi-RowCopy
  // stability model); charge-share bitlines restore what they sensed.
  for (RowAddr r : driven) {
    BitVec& cells = s.row_data(r);
    if (apa_.latch_fraction > 0.0 && r != first_local && n_dest > 0) {
      const BitVec& stable = ctx_.electrical->copy_stable_mask(
          bctx, r, n_dest, resolved, *ctx_.env);
      // Cells take the resolved value except where a latched bitline's
      // write-back failed: copy-unstable cells retain their previous
      // charge.
      cells.assign_masked(resolved, ~latched | stable);
    } else {
      cells = resolved;
    }
    s.set_row_state(r, RowState::kValid);
  }
  row_buffer_ = resolved;
  apply_apa_disturbance(s);
}

const BitVec& Bank::write_mask_for(std::size_t open_index) {
  if (write_masks_.empty()) {
    const std::span<const RowAddr> driven = stepper_.driven();
    write_masks_.reserve(driven.size());
    const BitlineContext bctx = bitline_ctx();
    for (RowAddr r : driven) {
      if (driven.size() == 1) {
        write_masks_.emplace_back(ctx_.profile->geometry.columns, true);
      } else {
        write_masks_.push_back(ctx_.electrical->write_overdrive_mask(
            bctx, r, differing_fields_, *ctx_.env, apa_));
      }
    }
  }
  return write_masks_[open_index];
}

void Bank::write(ColAddr start_bit, const BitVec& data, double t_ns) {
  check_time(t_ns);
  ++stats_.writes;
  if (!is_open()) {
    ++stats_.ignored_commands;
    return;
  }
  if (start_bit + data.size() > row_buffer_.size())
    throw std::out_of_range("write beyond row width");
  row_buffer_.assign_range(start_bit, data);
  Subarray& s = subarray(stepper_.open_sa());
  const std::span<const RowAddr> driven = stepper_.driven();
  const bool full_row = start_bit == 0 && data.size() == row_buffer_.size();
  BitVec window;
  if (!full_row) {
    window = BitVec(row_buffer_.size());
    window.set_range(start_bit, data.size(), true);
  }
  for (std::size_t i = 0; i < driven.size(); ++i) {
    const BitVec& mask = write_mask_for(i);
    BitVec& cells = s.row_data(driven[i]);
    if (full_row) {
      cells.assign_masked(row_buffer_, mask);
    } else {
      cells.assign_masked(row_buffer_, mask & window);
    }
  }
}

BitVec Bank::read(ColAddr start_bit, std::size_t nbits, double t_ns) {
  check_time(t_ns);
  ++stats_.reads;
  if (!is_open())
    throw std::logic_error("RD issued to a bank with no open row");
  return row_buffer_.slice(start_bit, nbits);
}

void Bank::pre(double t_ns) {
  check_time(t_ns);
  ++stats_.pres;
  if (!stepper_.pre(t_ns)) ++stats_.ignored_commands;
}

void Bank::refresh(double t_ns) {
  check_time(t_ns);
  close(stepper_.refresh(t_ns));
  if (!stepper_.idle()) {
    ++stats_.ignored_commands;
    return;
  }
  ++stats_.refreshes;
}

std::vector<RowAddr> Bank::open_rows() const {
  std::vector<RowAddr> rows;
  if (!is_open()) return rows;
  const std::span<const RowAddr> driven = stepper_.driven();
  rows.reserve(driven.size());
  // Internal wordlines map back to the logical addresses the host sees.
  for (RowAddr r : driven)
    rows.push_back(
        global_of(stepper_.open_sa(), ctx_.profile->scrambler.to_logical(r)));
  return rows;
}

BitVec& Bank::backdoor_row(RowAddr global_row) {
  return subarray(subarray_of(global_row))
      .row_data(ctx_.profile->scrambler.to_internal(local_of(global_row)));
}

const BitVec& Bank::backdoor_row(RowAddr global_row) const {
  auto it = subarrays_.find(subarray_of(global_row));
  if (it == subarrays_.end())
    throw std::out_of_range("subarray never touched");
  return it->second->row_data(
      ctx_.profile->scrambler.to_internal(local_of(global_row)));
}

RowState Bank::backdoor_row_state(RowAddr global_row) const {
  auto it = subarrays_.find(subarray_of(global_row));
  if (it == subarrays_.end()) return RowState::kValid;
  return it->second->row_state(
      ctx_.profile->scrambler.to_internal(local_of(global_row)));
}

}  // namespace simra::dram
