#pragma once

#include "common/units.hpp"

namespace simra::dram {

/// JEDEC DDR4 timing parameters relevant to this study (§2.1). Values are
/// for a DDR4-2666 speed grade; the exact nominal values matter only for
/// the power/latency models — the PUD behaviour depends on *violations* of
/// tRAS and tRP.
struct TimingParams {
  Nanoseconds tRCD{13.5};   ///< ACT -> first RD/WR.
  Nanoseconds tRAS{36.0};   ///< ACT -> PRE (sensing + full restore).
  Nanoseconds tRP{13.5};    ///< PRE -> next ACT (precharge latency).
  Nanoseconds tWR{15.0};    ///< Write recovery.
  Nanoseconds tRFC{350.0};  ///< Refresh cycle time (8 Gb-class die).
  Nanoseconds tCCD{5.0};    ///< Column-to-column delay.
  Nanoseconds tFAW{21.0};   ///< Four-activate window (rank-wide).
  Nanoseconds tCK{0.75};    ///< Clock period (DDR4-2666).

  Nanoseconds tRC() const { return tRAS + tRP; }  ///< Row cycle time.

  static TimingParams ddr4_2666();
  static TimingParams ddr4_2133();
  static TimingParams ddr4_3200();
};

}  // namespace simra::dram
