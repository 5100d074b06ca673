#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "dram/bank.hpp"
#include "dram/electrical.hpp"
#include "dram/predecoder.hpp"
#include "dram/process_variation.hpp"
#include "dram/types.hpp"
#include "dram/vendor.hpp"

namespace simra::dram {

/// One DDR4 DRAM chip: a set of banks behind a shared command interface,
/// with chip-wide environment state (temperature, VPP) and persistent
/// process variation derived from the chip's seed.
///
/// Commands carry explicit nanosecond timestamps; the host (bender) layer
/// is responsible for the 1.5 ns command-slot granularity of the testbed.
class Chip {
 public:
  /// `seed` determines the chip's process variation (its stable/unstable
  /// cell map); distinct seeds model distinct physical chips.
  explicit Chip(VendorProfile profile, std::uint64_t seed = 1);

  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  const VendorProfile& profile() const noexcept { return profile_; }
  const PredecoderLayout& layout() const noexcept { return layout_; }
  const ElectricalModel& electrical() const noexcept { return electrical_; }
  std::uint64_t seed() const noexcept { return variation_.seed(); }

  std::size_t bank_count() const noexcept { return banks_.size(); }
  Bank& bank(BankId id);
  const Bank& bank(BankId id) const;

  EnvironmentState& env() noexcept { return env_; }
  const EnvironmentState& env() const noexcept { return env_; }
  Rng& rng() noexcept { return rng_; }
  /// The chip's counter-based frac-sense noise stream (keyed on the chip
  /// seed, independent of `rng()`'s draw sequence).
  Rng::CounterStream& noise_stream() noexcept { return noise_; }

  /// Attaches a chip-fault injector (non-owning; nullptr detaches) and
  /// propagates it to every bank. Without one, the command path runs the
  /// exact fault-free model.
  void install_faults(fault::ChipInjector* faults) noexcept;
  fault::ChipInjector* faults() const noexcept { return faults_; }

  /// Aggregated command statistics across all banks.
  CommandStats total_stats() const;

 private:
  VendorProfile profile_;
  PredecoderLayout layout_;
  VariationField variation_;
  ElectricalModel electrical_;
  EnvironmentState env_;
  Rng rng_;
  Rng::CounterStream noise_;
  fault::ChipInjector* faults_ = nullptr;
  std::vector<std::unique_ptr<Bank>> banks_;
};

}  // namespace simra::dram
