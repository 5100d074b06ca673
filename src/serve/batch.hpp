#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bender/program.hpp"
#include "dram/predecoder.hpp"
#include "dram/vendor.hpp"
#include "pud/row_group.hpp"
#include "serve/request.hpp"
#include "verify/rules.hpp"

namespace simra::serve {

/// One request compiled against a shard: the per-operation command
/// programs (built by the same `pud::programs` builders the serial engine
/// runs), in issue order, plus how many RD payloads the request consumes.
struct CompiledRequest {
  std::uint64_t id = 0;
  std::vector<bender::Program> segments;
  std::size_t reads = 0;
};

/// Per-request placement inside a fused batch program, in the fused
/// program's slot timeline (relative nanoseconds from batch start), plus
/// the slot->request attribution: this request owns the half-open command
/// range [first_command, first_command + command_count) of the fused
/// program. Slot compaction moves slots but never reorders or drops
/// commands, so the command range survives SIMRA_OPT=on unchanged.
struct FusedExtent {
  double start_ns = 0.0;
  double end_ns = 0.0;
  std::size_t first_command = 0;
  std::size_t command_count = 0;
};

/// Compiles requests into command programs and fuses a batch of them into
/// one `bender::Program` per (shard, bank) dispatch.
///
/// Fusion preserves the exact per-chip command order of the serial,
/// unbatched execution: segments are concatenated in request order with
/// no interleaving, so every stochastic draw the chip model consumes
/// (frac-sense noise, charge-share tie-breaks) happens in the same
/// sequence — fused and unbatched runs are byte-identical, which the
/// serve property test pins. What batching buys is host-side: one
/// verify gate, one executor dispatch, and one scheduler round-trip for
/// the whole batch instead of per program.
///
/// Segment boundaries keep the trailing tRP of the previous op (so the
/// bank reopens on the nominal-timing side of the §6 thresholds, exactly
/// as between separately-run programs) and additionally pad to tFAW after
/// the last ACT so the rolling four-activate window never trips across a
/// boundary that would be unconstrained in serial execution.
class BatchCompiler {
 public:
  BatchCompiler(const dram::VendorProfile* profile,
                const dram::PredecoderLayout* layout);

  /// Validates a request against this shard's geometry; returns a
  /// non-empty human-readable reason when the request cannot compile.
  std::string validate(const Request& request,
                       const pud::RowGroup& group) const;

  /// The (bank, subarray) part of `validate`, which needs no group: check
  /// it before steering a group for the slot, since steering runs trials
  /// on the chip at that address.
  std::string validate_slot(const Request& request) const;

  /// Compiles one request. `group` is the shard's reliability-steered
  /// activation group for (bank, sa). Throws std::invalid_argument on
  /// requests `validate` would reject.
  CompiledRequest compile(const Request& request,
                          const pud::RowGroup& group) const;

  /// Fuses compiled requests (in order) into one program named `name`.
  /// When `extents` is non-null it receives one entry per request with
  /// its [start, end) window on the fused timeline.
  ///
  /// Under SIMRA_OPT=on the fused program is additionally slot-compacted
  /// (verify::compact — command order, hence every stochastic draw the
  /// chip consumes, is preserved, so this composes with fault injection)
  /// and the extents are recomputed from each request's command range on
  /// the packed timeline.
  bender::Program fuse(const std::string& name,
                       std::span<const CompiledRequest> batch,
                       std::vector<FusedExtent>* extents = nullptr) const;

  const dram::VendorProfile& profile() const noexcept { return *profile_; }

 private:
  const dram::VendorProfile* profile_;
  const dram::PredecoderLayout* layout_;
  verify::RuleTable table_;  ///< for SIMRA_OPT=on batch compaction.
};

}  // namespace simra::serve
