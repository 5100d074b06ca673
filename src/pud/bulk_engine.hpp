#pragma once

#include <span>
#include <vector>

#include "pud/engine.hpp"

namespace simra::pud {

/// Bank-level parallel PUD execution.
///
/// Banks are independent state machines behind one command bus, so the
/// long analog phases of an APA (charge restore, precharge) in one bank
/// can overlap the command-issue phases of the others — the PiDRAM-style
/// throughput lever the paper's case studies assume when scaling to whole
/// modules. The pipeline offsets each bank's ACT->PRE->ACT by one command
/// slot more than the APA span, keeping every per-bank timing delta
/// exact (the device only cares about *its own* command distances).
class BulkEngine {
 public:
  explicit BulkEngine(Engine* engine);

  struct BulkResult {
    /// Row buffer of each bank after its operation, in input order.
    std::vector<BitVec> results;
    double duration_ns = 0.0;
    /// Equivalent serial duration (one op at a time), for speedup checks.
    double serial_duration_ns = 0.0;

    double speedup() const {
      return duration_ns > 0.0 ? serial_duration_ns / duration_ns : 0.0;
    }
  };

  /// Runs the same MAJX operation on every bank in one pipelined command
  /// program. Operand rows must already be initialized per bank (use
  /// stage_majx_operands). The same subarray-local group is used in every
  /// bank.
  BulkResult majx_pipelined(std::span<const dram::BankId> banks,
                            dram::SubarrayId sa, const RowGroup& group,
                            const MajxConfig& config);

  /// Writes the MAJX operand layout (replicas + neutral rows) into every
  /// bank at nominal timings, bank by bank (`Engine::stage_majx`).
  void stage_majx_operands(std::span<const dram::BankId> banks,
                           dram::SubarrayId sa, const RowGroup& group,
                           const MajxConfig& config);

  /// Runs Multi-RowCopy on every bank in one pipelined program (sources
  /// must be initialized beforehand).
  BulkResult multi_row_copy_pipelined(
      std::span<const dram::BankId> banks, dram::SubarrayId sa,
      const RowGroup& group,
      ApaTimings timings = ApaTimings::best_for_multi_row_copy());

 private:
  BulkResult run_pipelined(std::span<const dram::BankId> banks,
                           dram::SubarrayId sa, const RowGroup& group,
                           ApaTimings timings, bool read_buffers);

  Engine* engine_;
};

}  // namespace simra::pud
