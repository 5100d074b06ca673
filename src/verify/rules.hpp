#pragma once

#include <cstdint>
#include <vector>

#include "bender/program.hpp"
#include "common/units.hpp"
#include "dram/timing.hpp"
#include "verify/rule_id.hpp"

namespace simra::verify {

/// Whether a pairwise rule constrains command pairs on the same bank or
/// across the whole rank (any bank).
enum class Scope : std::uint8_t {
  kSameBank,
  kRank,
};

/// Converts a nominal timing parameter to the minimum number of 1.5 ns
/// Bender slots that satisfies it (rounded up; the epsilon absorbs
/// floating-point noise on exact multiples, e.g. 13.5 / 1.5 == 9).
inline std::uint64_t slots_for(Nanoseconds t) {
  const double slots = t.value / bender::kSlotNs;
  auto n = static_cast<std::uint64_t>(slots);
  if (slots - static_cast<double>(n) > 1e-9) ++n;
  return n;
}

/// One declarative pairwise timing constraint: whenever `second` is issued,
/// the most recent `first` (in scope) must be at least `min_slots` earlier.
struct RuleSpec {
  RuleId rule;
  bender::CommandKind first;
  bender::CommandKind second;
  Scope scope;
  std::uint64_t min_slots;
};

/// One rolling-window constraint: at most `max_count` commands of `kind`
/// within any `window_slots`-slot window (rank scope). Models tFAW.
struct WindowRuleSpec {
  RuleId rule;
  bender::CommandKind kind;
  std::uint64_t window_slots;
  std::size_t max_count;
};

/// The declarative DDR4 rule table the analyzer walks. Built once per
/// speed grade from the chip's TimingParams; tests can hand-construct
/// reduced tables to probe individual rules.
struct RuleTable {
  std::vector<RuleSpec> pairwise;
  std::vector<WindowRuleSpec> windows;
  /// Slots after which the bank-state machine ages PRECHARGING -> IDLE.
  std::uint64_t trp_slots = 0;

  static RuleTable ddr4(const dram::TimingParams& t);
};

}  // namespace simra::verify
