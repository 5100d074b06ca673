#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dram/predecoder.hpp"
#include "dram/types.hpp"

namespace simra::dram {

/// ACT -> sense amplifiers fire. A PRE before this leaves the open cells
/// at ~VDD/2 (Frac, §2.2); an APA with a shorter t1 is a charge share.
inline constexpr double kSenseEnableNs = 4.0;
/// PRE -> wordlines de-asserted. An ACT to the same subarray before this
/// finds the previous row set still latched and opens both (§6).
inline constexpr double kPrechargeSettleNs = 4.0;

/// One bank's command-level state without cell data: phase, open
/// subarray, local-decoder latches, driven rows and last ACT/PRE times.
/// Each ACT returns a verdict naming the §6 regime it fell into; `Bank`
/// applies verdicts to cells and `verify::dataflow` to value origins.
/// Rows are internal subarray-local addresses, times are ns.
class BankStepper {
 public:
  enum class Act : std::uint8_t {
    kIgnored,       ///< the bank is open: the device drops the ACT.
    kGated,         ///< Mfr. S drops a PRE/ACT pair violating tRP (§9 L1).
    kSingle,        ///< one row opens: idle bank, aged PRE, other subarray.
    kConsecutive,   ///< t2 in [precharge settle, tRP): RowClone (§2.2).
    kSimultaneous,  ///< t2 < precharge settle: many-row activation (§6).
  };

  /// Rows a command took out of the driven set: the rows it closed or, for
  /// kSimultaneous, merged with. `rows` is valid until the next command.
  struct Released {
    SubarrayId sa = 0;
    std::span<const RowAddr> rows;
    bool frac = false;  ///< closed by a PRE before sense enable.
  };

  struct ActVerdict {
    Act kind = Act::kIgnored;
    double t1 = 0.0;  ///< ACT -> PRE, if the bank was precharging.
    double t2 = 0.0;  ///< PRE -> this ACT, likewise.
    bool sa_latched = false;
    Released prior;
  };

  BankStepper(const PredecoderLayout* layout, double trp_ns,
              bool gates_violated_timings)
      : latches_(layout), trp_ns_(trp_ns), gates_(gates_violated_timings) {}

  bool open() const noexcept { return phase_ == Phase::kOpen; }
  bool idle() const noexcept { return phase_ == Phase::kIdle; }
  SubarrayId open_sa() const noexcept { return open_sa_; }
  /// The asserted rows, sorted; kept while PRECHARGING.
  std::span<const RowAddr> driven() const noexcept { return driven_; }
  /// While PRECHARGING: the SAs had latched when the PRE came.
  bool sa_latched() const noexcept {
    return t_pre_ - t_last_act_ >= kSenseEnableNs;
  }

  /// Keeps the driven rows `keep` accepts, asking in order.
  template <class Keep>
  void retain(Keep keep) {
    std::size_t n = 0;
    for (RowAddr r : driven_)
      if (keep(r)) driven_[n++] = r;
    driven_.resize(n);
  }

  ActVerdict act(SubarrayId sa, RowAddr local, double t_ns) {
    ActVerdict v;
    if (phase_ == Phase::kOpen) return v;
    if (phase_ == Phase::kIdle) {
      v.kind = Act::kSingle;
      open_single(sa, local, t_ns);
      return v;
    }
    v.t1 = t_pre_ - t_last_act_;
    v.t2 = t_ns - t_pre_;
    v.sa_latched = sa_latched();
    if (gates_ && v.t2 < trp_ns_) {
      v.kind = Act::kGated;
      phase_ = Phase::kOpen;
    } else if (v.t2 < kPrechargeSettleNs && sa == open_sa_) {
      v.kind = Act::kSimultaneous;
      v.prior = release(/*frac=*/false);
      latches_.latch(local);
      latches_.asserted_rows(driven_);
      phase_ = Phase::kOpen;
      t_last_act_ = t_ns;
    } else {
      v.kind = v.t2 < trp_ns_ && sa == open_sa_ ? Act::kConsecutive
                                                : Act::kSingle;
      v.prior = release(/*frac=*/!v.sa_latched);
      open_single(sa, local, t_ns);
    }
    return v;
  }

  /// PRE takes effect lazily: the next ACT or REF decides what it did.
  /// False when the bank was not open, so the device ignores it.
  bool pre(double t_ns) {
    if (phase_ != Phase::kOpen) return false;
    phase_ = Phase::kPrecharging;
    t_pre_ = t_ns;
    return true;
  }

  /// REF completes a precharge that has aged tRP. The device ignores the
  /// REF itself unless the bank is then idle.
  Released refresh(double t_ns) {
    if (phase_ != Phase::kPrecharging || t_ns - t_pre_ < trp_ns_) return {};
    latches_.clear();
    phase_ = Phase::kIdle;
    return release(!sa_latched());
  }

 private:
  enum class Phase : std::uint8_t { kIdle, kOpen, kPrecharging };

  /// Hands the driven set back through `prior_`; the two buffers swap, so
  /// steady-state stepping allocates nothing.
  Released release(bool frac) {
    std::swap(prior_, driven_);
    driven_.clear();
    return {open_sa_, prior_, frac};
  }

  void open_single(SubarrayId sa, RowAddr local, double t_ns) {
    latches_.clear();
    latches_.latch(local);
    driven_.assign(1, local);
    open_sa_ = sa;
    phase_ = Phase::kOpen;
    t_last_act_ = t_ns;
  }

  DecoderLatches latches_;
  double trp_ns_;
  bool gates_;
  Phase phase_ = Phase::kIdle;
  SubarrayId open_sa_ = 0;
  std::vector<RowAddr> driven_;
  std::vector<RowAddr> prior_;
  double t_last_act_ = 0.0;
  double t_pre_ = 0.0;
};

}  // namespace simra::dram
