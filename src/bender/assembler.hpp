#pragma once

#include <string>

#include "bender/program.hpp"

namespace simra::bender {

/// Text format for command programs, so experiments can be stored and
/// exchanged as plain files (the workflow DRAM Bender's program files
/// support). One statement per line, '#' starts a comment:
///
///   # MAJ APA at (t1 = 1.5 ns, t2 = 3 ns)
///   ACT bank=0 row=127
///   DELAY 1.5
///   PRE bank=0
///   DELAY 3
///   ACT bank=0 row=128
///   WAIT 36            # delay_at_least (rounds up to a slot)
///   RD bank=0 col=0 bits=8192
///   WR bank=0 col=0 bits=64 pattern=0xAA
///   WR bank=0 col=64 hex=deadbeef
///   REF
///
/// WR payloads are given either as a repeating byte `pattern` with an
/// explicit `bits` width, or as little-endian `hex` nibbles.
class Assembler {
 public:
  /// Parses a program; throws std::invalid_argument with a line-numbered
  /// message on malformed input, including an operand that is negative or
  /// does not fit its field (bank=256, pattern=0x1ff).
  static Program assemble(const std::string& text);

  /// Renders a program back to text. WR payloads become `hex=` clauses.
  /// assemble(disassemble(p)) reproduces p's commands and slots exactly.
  static std::string disassemble(const Program& program);
};

}  // namespace simra::bender
