#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bender/program.hpp"
#include "dram/predecoder.hpp"
#include "dram/scrambler.hpp"
#include "verify/analyzer.hpp"
#include "verify/rules.hpp"

namespace simra::verify {

/// Inputs the whole-program passes need beyond the declarative rule
/// table: the pre-decoder layout (to expand APA activation groups the
/// same way the chip's local wordline decoder does), the row geometry,
/// and the chip quirks that change command semantics. All pointers are
/// non-owning and must outlive the pass.
struct ProgramContext {
  const RuleTable* table = nullptr;
  const dram::PredecoderLayout* layout = nullptr;
  const dram::RowScrambler* scrambler = nullptr;  ///< nullptr = identity.
  std::size_t columns = 0;  ///< row width in bits (full-row write test).
  /// Mfr. S (§9 Limitation 1): internal circuitry drops PRE/ACT pairs
  /// that violate tRP, so the sub-tRP regimes never engage.
  bool gates_violated_timings = false;
  /// Rows this program never touches hold unknown-but-valid data left by
  /// earlier programs (the engine runs many small programs against one
  /// chip), so "unknown" is not "uninitialized". Set false for
  /// self-contained programs (e.g. a fused MAJX batch that stages all of
  /// its operands): unknown then means never-initialized, and reads or
  /// charge-share uses of it become findings.
  bool assume_defined_on_entry = true;
};

/// One simultaneous-activation event (the §3.1 many-row regime): the
/// full driven row set as the pre-decoder latches predict it, in
/// internal (post-scrambler) subarray-local row addresses.
struct ApaEvent {
  std::uint64_t slot = 0;
  std::size_t command_index = 0;
  int bank = 0;
  dram::SubarrayId sa = 0;
  std::vector<dram::RowAddr> rows;  ///< driven local rows, sorted.
};

/// What the pass statically knows about one row's (or the row buffer's)
/// value.
enum class RowOrigin : std::uint8_t {
  kUnknown,  ///< untouched by this program — data from before it started.
  kWritten,  ///< defined by a WR (payload known when full-row).
  kCopied,   ///< defined by a consecutive-activation (RowClone) copy.
  kOpaque,   ///< defined in-program, payload not statically known
             ///< (charge-share resolution, frac re-sense, partial mixes).
  kFrac,     ///< left at ~VDD/2 by a cut-short precharge.
};

/// A row's value state at the end of the program.
struct RowFate {
  int bank = 0;
  dram::SubarrayId sa = 0;
  dram::RowAddr row = 0;  ///< internal subarray-local row.
  RowOrigin origin = RowOrigin::kUnknown;
  /// The full-row WR payload the row holds, when statically known; points
  /// into the program's commands.
  const BitVec* payload = nullptr;
};

/// Output of the dataflow/lifetime pass: classified findings, the APA
/// events (input to the reliability lint), and the two families of
/// provably removable commands the optimizer consumes. Removability is
/// judged against the fault-free chip model only — callers must not act
/// on `dead_stores` / `redundant_reopens` when a fault injector is
/// attached (injected flips are drawn per touched command).
struct DataflowResult {
  std::vector<Finding> findings;
  std::vector<ApaEvent> apas;
  /// Indices of full-row WR commands whose data is never observed before
  /// a later full-row WR to the same single open row overwrites it.
  std::vector<std::size_t> dead_stores;
  /// (PRE index, ACT index) pairs that close and nominally re-open the
  /// row the bank already had open with no distinguishable state change.
  std::vector<std::pair<std::size_t, std::size_t>> redundant_reopens;
  /// Every row the program touched, by (bank, subarray, row).
  std::vector<RowFate> rows;
};

/// Walks the slot timeline once, tracking per-(bank, row) value state
/// (undefined / written / copied-from / clobbered-by-APA / frac) by
/// stepping each bank's dram::BankStepper, the code the chip runs, and
/// classifies findings against the program's declared intents.
DataflowResult dataflow(const bender::Program& program,
                        const ProgramContext& ctx);

}  // namespace simra::verify
