#include "bender/assembler.hpp"

#include <cctype>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace simra::bender {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + message);
}

/// key=value operand list.
std::map<std::string, std::string> parse_operands(std::istringstream& in,
                                                  std::size_t line) {
  std::map<std::string, std::string> out;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
      fail(line, "malformed operand '" + token + "' (expected key=value)");
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

/// Parses operand `key=value` as an unsigned number no larger than `max`,
/// the width of the field it fills. stoull would wrap a leading '-' and a
/// cast would truncate a wider value, so both are errors.
std::uint64_t parse_number(const std::string& key, const std::string& value,
                           std::size_t line, std::uint64_t max) {
  const std::string operand = "operand '" + key + "=" + value + "'";
  if (value.front() == '-') fail(line, "negative " + operand);
  std::uint64_t parsed = 0;
  bool fits = true;
  try {
    std::size_t used = 0;
    parsed = std::stoull(value, &used, 0);
    if (used != value.size()) throw std::invalid_argument(value);
  } catch (const std::out_of_range&) {
    fits = false;
  } catch (const std::exception&) {
    fail(line, "bad number in " + operand);
  }
  if (!fits || parsed > max)
    fail(line, operand + " out of range (max " + std::to_string(max) + ")");
  return parsed;
}

template <class Field>
Field require(const std::map<std::string, std::string>& operands,
              const std::string& key, std::size_t line) {
  const auto it = operands.find(key);
  if (it == operands.end()) fail(line, "missing operand '" + key + "'");
  return static_cast<Field>(parse_number(
      key, it->second, line, std::numeric_limits<Field>::max()));
}

int hex_digit(char c, std::size_t line) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  fail(line, std::string("bad hex digit '") + c + "'");
}

BitVec parse_payload(const std::map<std::string, std::string>& operands,
                     std::size_t line) {
  const auto hex = operands.find("hex");
  if (hex != operands.end()) {
    const std::string& digits = hex->second;
    BitVec data(digits.size() * 4);
    for (std::size_t i = 0; i < digits.size(); ++i) {
      const int nibble = hex_digit(digits[i], line);
      for (int b = 0; b < 4; ++b)
        if ((nibble >> b) & 1) data.set(i * 4 + b, true);
    }
    return data;
  }
  const auto pattern = operands.find("pattern");
  if (pattern != operands.end()) {
    BitVec data(require<std::size_t>(operands, "bits", line));
    data.fill_byte(static_cast<std::uint8_t>(
        parse_number("pattern", pattern->second, line, 0xFF)));
    return data;
  }
  fail(line, "WR needs a 'hex=' or 'pattern= bits=' payload");
}

std::string payload_to_hex(const BitVec& data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve((data.size() + 3) / 4);
  for (std::size_t i = 0; i < data.size(); i += 4) {
    int nibble = 0;
    for (std::size_t b = 0; b < 4 && i + b < data.size(); ++b)
      if (data.get(i + b)) nibble |= 1 << b;
    out.push_back(kDigits[nibble]);
  }
  return out;
}

}  // namespace

Program Assembler::assemble(const std::string& text) {
  Program program;
  std::istringstream lines(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(lines, raw)) {
    ++line_no;
    const std::size_t comment = raw.find('#');
    if (comment != std::string::npos) raw.erase(comment);
    std::istringstream in(raw);
    std::string mnemonic;
    if (!(in >> mnemonic)) continue;  // blank line.

    if (mnemonic == "EXPECT") {
      // Declares an intended timing violation, e.g.
      //   EXPECT tRAS bank=0 label=apa
      std::string rule_token;
      if (!(in >> rule_token)) fail(line_no, "EXPECT needs a rule name");
      const auto rule = verify::rule_from_name(rule_token);
      if (!rule) fail(line_no, "unknown timing rule '" + rule_token + "'");
      const auto operands = parse_operands(in, line_no);
      verify::Intent intent;
      intent.rule = *rule;
      const auto bank = operands.find("bank");
      if (bank != operands.end())
        intent.bank = require<dram::BankId>(operands, "bank", line_no);
      const auto label = operands.find("label");
      if (label != operands.end()) intent.label = label->second;
      program.expect(std::move(intent));
      continue;
    }

    if (mnemonic == "DELAY" || mnemonic == "WAIT") {
      double ns = 0.0;
      if (!(in >> ns)) fail(line_no, mnemonic + " needs a duration in ns");
      try {
        if (mnemonic == "DELAY")
          program.delay(Nanoseconds{ns});
        else
          program.delay_at_least(Nanoseconds{ns});
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
      continue;
    }

    const auto operands = parse_operands(in, line_no);
    const auto has_ap = [&] {
      const auto it = operands.find("ap");
      return it != operands.end() &&
             parse_number("ap", it->second, line_no, 1) != 0;
    };
    if (mnemonic == "ACT") {
      program.act(require<dram::BankId>(operands, "bank", line_no),
                  require<dram::RowAddr>(operands, "row", line_no));
    } else if (mnemonic == "PRE") {
      program.pre(require<dram::BankId>(operands, "bank", line_no));
    } else if (mnemonic == "PREA") {
      program.prea();
    } else if (mnemonic == "RD") {
      program.rd(require<dram::BankId>(operands, "bank", line_no),
                 require<dram::ColAddr>(operands, "col", line_no),
                 require<std::size_t>(operands, "bits", line_no), has_ap());
    } else if (mnemonic == "WR") {
      program.wr(require<dram::BankId>(operands, "bank", line_no),
                 require<dram::ColAddr>(operands, "col", line_no),
                 parse_payload(operands, line_no), has_ap());
    } else if (mnemonic == "REF") {
      program.ref();
    } else {
      fail(line_no, "unknown mnemonic '" + mnemonic + "'");
    }
  }
  return program;
}

std::string Assembler::disassemble(const Program& program) {
  std::ostringstream out;
  for (const verify::Intent& intent : program.intents()) {
    out << "EXPECT " << verify::rule_name(intent.rule);
    if (intent.bank != verify::kAnyBank) out << " bank=" << intent.bank;
    if (!intent.label.empty()) out << " label=" << intent.label;
    out << "\n";
  }
  std::uint64_t prev_slot = 0;
  bool first = true;
  for (const TimedCommand& cmd : program.commands()) {
    if (first) {
      // Preserve an initial idle offset exactly.
      if (cmd.slot > 0)
        out << "DELAY " << static_cast<double>(cmd.slot) * kSlotNs << "\n";
    } else {
      const std::uint64_t gap = cmd.slot - prev_slot;
      if (gap > 1)
        out << "DELAY " << static_cast<double>(gap) * kSlotNs << "\n";
    }
    switch (cmd.kind) {
      case CommandKind::kAct:
        out << "ACT bank=" << static_cast<int>(cmd.bank) << " row=" << cmd.row;
        break;
      case CommandKind::kPre:
        if (cmd.a10) {
          out << "PREA";
        } else {
          out << "PRE bank=" << static_cast<int>(cmd.bank);
        }
        break;
      case CommandKind::kRd:
        out << "RD bank=" << static_cast<int>(cmd.bank) << " col=" << cmd.col
            << " bits=" << cmd.nbits;
        if (cmd.a10) out << " ap=1";
        break;
      case CommandKind::kWr:
        out << "WR bank=" << static_cast<int>(cmd.bank) << " col=" << cmd.col
            << " hex=" << payload_to_hex(cmd.data);
        if (cmd.a10) out << " ap=1";
        break;
      case CommandKind::kRef:
        out << "REF";
        break;
    }
    out << "\n";
    prev_slot = cmd.slot;
    first = false;
  }
  return out.str();
}

}  // namespace simra::bender
