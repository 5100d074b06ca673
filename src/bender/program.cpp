#include "bender/program.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace simra::bender {

std::string to_string(CommandKind kind) {
  switch (kind) {
    case CommandKind::kAct:
      return "ACT";
    case CommandKind::kPre:
      return "PRE";
    case CommandKind::kWr:
      return "WR";
    case CommandKind::kRd:
      return "RD";
    case CommandKind::kRef:
      return "REF";
  }
  return "?";
}

Program& Program::push(TimedCommand cmd) {
  if (cursor_occupied_) ++cursor_;  // one command per slot.
  cmd.slot = cursor_;
  cursor_occupied_ = true;
  commands_.push_back(std::move(cmd));
  return *this;
}

Program& Program::act(dram::BankId bank, dram::RowAddr row) {
  TimedCommand c;
  c.kind = CommandKind::kAct;
  c.bank = bank;
  c.row = row;
  return push(std::move(c));
}

Program& Program::pre(dram::BankId bank) {
  TimedCommand c;
  c.kind = CommandKind::kPre;
  c.bank = bank;
  return push(std::move(c));
}

Program& Program::prea() {
  TimedCommand c;
  c.kind = CommandKind::kPre;
  c.a10 = true;
  return push(std::move(c));
}

Program& Program::wr(dram::BankId bank, dram::ColAddr col, BitVec data,
                     bool auto_precharge) {
  TimedCommand c;
  c.kind = CommandKind::kWr;
  c.bank = bank;
  c.col = col;
  c.data = std::move(data);
  c.a10 = auto_precharge;
  return push(std::move(c));
}

Program& Program::rd(dram::BankId bank, dram::ColAddr col, std::size_t nbits,
                     bool auto_precharge) {
  TimedCommand c;
  c.kind = CommandKind::kRd;
  c.bank = bank;
  c.col = col;
  c.nbits = nbits;
  c.a10 = auto_precharge;
  return push(std::move(c));
}

Program& Program::ref() {
  TimedCommand c;
  c.kind = CommandKind::kRef;
  return push(std::move(c));
}

Program& Program::delay(Nanoseconds delay) {
  const double slots_exact = delay.value / kSlotNs;
  const double rounded = std::round(slots_exact);
  if (delay.value <= 0.0 || std::abs(slots_exact - rounded) > 1e-9)
    throw std::invalid_argument(
        "delay must be a positive multiple of the 1.5 ns command slot");
  cursor_ += static_cast<std::uint64_t>(rounded);
  cursor_occupied_ = false;
  return *this;
}

Program& Program::delay_at_least(Nanoseconds delay) {
  if (delay.value <= 0.0) throw std::invalid_argument("delay must be positive");
  auto slots =
      static_cast<std::uint64_t>(std::ceil(delay.value / kSlotNs - 1e-9));
  if (slots == 0) slots = 1;
  if (cursor_occupied_) {
    cursor_ += slots;
  } else {
    // The unoccupied cursor already sits partway through the gap (an
    // earlier delay advanced it past the last command); count that
    // distance so an exact slot multiple does not over-advance.
    const std::uint64_t base = commands_.empty() ? 0 : commands_.back().slot;
    cursor_ = std::max(cursor_, base + slots);
  }
  cursor_occupied_ = false;
  return *this;
}

Program& Program::pad_after_last(CommandKind kind, Nanoseconds delay) {
  if (delay.value <= 0.0) throw std::invalid_argument("delay must be positive");
  auto it = std::find_if(commands_.rbegin(), commands_.rend(),
                         [kind](const TimedCommand& c) { return c.kind == kind; });
  if (it == commands_.rend())
    throw std::logic_error("pad_after_last: no prior command of that kind");
  const auto slots =
      static_cast<std::uint64_t>(std::ceil(delay.value / kSlotNs - 1e-9));
  const std::uint64_t target = it->slot + slots;
  const std::uint64_t next = cursor_occupied_ ? cursor_ + 1 : cursor_;
  if (next < target) {
    cursor_ = target;
    cursor_occupied_ = false;
  }
  return *this;
}

Program& Program::append(const Program& other) {
  if (cursor_occupied_) {
    ++cursor_;
    cursor_occupied_ = false;
  }
  const std::uint64_t base = cursor_;
  commands_.reserve(commands_.size() + other.commands_.size());
  for (TimedCommand cmd : other.commands_) {
    cmd.slot += base;
    commands_.push_back(std::move(cmd));
  }
  intents_.insert(intents_.end(), other.intents_.begin(),
                  other.intents_.end());
  cursor_ = base + other.cursor_;
  cursor_occupied_ = other.cursor_occupied_;
  return *this;
}

Program& Program::expect(verify::Intent intent) {
  intents_.push_back(std::move(intent));
  return *this;
}

Program& Program::expect(const std::vector<verify::Intent>& intents) {
  intents_.insert(intents_.end(), intents.begin(), intents.end());
  return *this;
}

Program& Program::set_name(std::string name) {
  name_ = std::move(name);
  return *this;
}

Program& Program::repoint(dram::RowAddr row, const BitVec* payload) {
  for (TimedCommand& c : commands_) {
    if (c.kind == CommandKind::kAct) c.row = row;
    if (c.kind == CommandKind::kWr && payload != nullptr) c.data = *payload;
  }
  return *this;
}

double Program::duration_ns() const {
  if (commands_.empty()) return 0.0;
  const std::uint64_t last =
      cursor_occupied_ ? cursor_ + 1 : cursor_;
  return static_cast<double>(last) * kSlotNs;
}

std::string Program::to_string() const {
  std::ostringstream os;
  for (const TimedCommand& c : commands_) {
    os << c.time_ns() << "ns\t" << bender::to_string(c.kind);
    switch (c.kind) {
      case CommandKind::kAct:
        os << " bank=" << static_cast<int>(c.bank) << " row=" << c.row;
        break;
      case CommandKind::kPre:
        if (c.a10) {
          os << " all";  // PREA: bank bits are don't-care.
        } else {
          os << " bank=" << static_cast<int>(c.bank);
        }
        break;
      case CommandKind::kWr:
        os << " bank=" << static_cast<int>(c.bank) << " col=" << c.col
           << " bits=" << c.data.size();
        if (c.a10) os << " ap";
        break;
      case CommandKind::kRd:
        os << " bank=" << static_cast<int>(c.bank) << " col=" << c.col
           << " bits=" << c.nbits;
        if (c.a10) os << " ap";
        break;
      case CommandKind::kRef:
        break;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace simra::bender
