#include "verify/analyzer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/env.hpp"
#include "obs/trace.hpp"

namespace simra::verify {
namespace {

using bender::CommandKind;
using bender::TimedCommand;

// Local name table so simra_verify needs no symbols from simra_bender
// (the link goes the other way: the executor gate pulls in this library).
const char* command_name(CommandKind kind, bool a10) {
  switch (kind) {
    case CommandKind::kAct:
      return "ACT";
    case CommandKind::kPre:
      return a10 ? "PREA" : "PRE";
    case CommandKind::kWr:
      return a10 ? "WRA" : "WR";
    case CommandKind::kRd:
      return a10 ? "RDA" : "RD";
    case CommandKind::kRef:
      return "REF";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

constexpr std::size_t kNumKinds = 5;

std::size_t kind_index(CommandKind kind) {
  return static_cast<std::size_t>(kind);
}

/// The per-bank JEDEC protocol state machine. PRECHARGING ages lazily: a
/// bank that saw PRE at slot p is considered IDLE from slot p + tRP. Unlike
/// dram::BankStepper it follows every command, including those the chip
/// ignores (a PRE to an idle bank restarts the tRP window here). An ACT
/// opens the bank at once; the tRCD wait is the pairwise rule's job.
enum class BankPhase : std::uint8_t {
  kIdle,
  kOpen,
  kPrecharging,
};

struct BankState {
  BankPhase phase = BankPhase::kIdle;
  std::uint64_t phase_since = 0;  ///< slot of the PRE that set the phase.

  BankPhase effective(std::uint64_t slot, const RuleTable& table) const {
    if (phase == BankPhase::kPrecharging &&
        slot >= phase_since + table.trp_slots) {
      return BankPhase::kIdle;
    }
    return phase;
  }
};

struct LastSeen {
  std::uint64_t slot = 0;
  std::size_t index = 0;
};

struct Analysis {
  const RuleTable& table;
  std::vector<Finding> findings;
  std::map<int, BankState> banks;
  // Most recent command of each kind, per bank and rank-wide, with its
  // index for provenance.
  std::map<int, std::array<std::optional<LastSeen>, kNumKinds>> last_bank;
  std::array<std::optional<LastSeen>, kNumKinds> last_rank;
  // Rolling ACT history for the tFAW window rule.
  std::deque<LastSeen> act_window;

  explicit Analysis(const RuleTable& t) : table(t) {}

  void protocol_finding(FindingKind kind, Severity severity,
                        const TimedCommand& cmd, std::size_t index) {
    Finding f;
    f.kind = kind;
    f.severity = severity;
    f.classification = Classification::kUnexpected;
    f.slot = cmd.slot;
    f.command_index = index;
    f.command = cmd.kind;
    f.bank = cmd.kind == CommandKind::kRef ? kAnyBank
                                           : static_cast<int>(cmd.bank);
    findings.push_back(std::move(f));
  }

  void timing_finding(const RuleSpec& rule, const TimedCommand& cmd,
                      std::size_t index, const LastSeen& prior) {
    Finding f;
    f.kind = FindingKind::kTimingViolation;
    f.severity = Severity::kError;
    f.classification = Classification::kUnexpected;
    f.rule = rule.rule;
    f.slot = cmd.slot;
    f.command_index = index;
    f.command = cmd.kind;
    f.bank = cmd.kind == CommandKind::kRef ? kAnyBank
                                           : static_cast<int>(cmd.bank);
    f.actual_slots = cmd.slot - prior.slot;
    f.required_slots = rule.min_slots;
    f.prior_slot = prior.slot;
    f.prior_index = prior.index;
    findings.push_back(std::move(f));
  }

  /// Runs every pairwise rule whose `second` matches `cmd`. When several
  /// rules of the same RuleId match (tCCD has RD/WR × RD/WR entries),
  /// only the tightest observed gap is reported, so one short gap yields
  /// one diagnostic.
  void check_pairwise(const TimedCommand& cmd, std::size_t index,
                      std::optional<RuleId> skip = std::nullopt) {
    std::map<RuleId, std::pair<const RuleSpec*, LastSeen>> hits;
    for (const RuleSpec& rule : table.pairwise) {
      if (rule.second != cmd.kind) continue;
      if (skip && rule.rule == *skip) continue;
      const std::optional<LastSeen>* prior = nullptr;
      if (rule.scope == Scope::kSameBank) {
        auto it = last_bank.find(static_cast<int>(cmd.bank));
        if (it == last_bank.end()) continue;
        prior = &it->second[kind_index(rule.first)];
      } else {
        prior = &last_rank[kind_index(rule.first)];
      }
      if (!prior->has_value()) continue;
      const std::uint64_t gap = cmd.slot - (*prior)->slot;
      if (gap >= rule.min_slots) continue;
      auto [it, inserted] = hits.try_emplace(rule.rule, &rule, **prior);
      if (!inserted && (*prior)->slot > it->second.second.slot) {
        it->second = {&rule, **prior};
      }
    }
    for (const auto& [rule_id, hit] : hits) {
      timing_finding(*hit.first, cmd, index, hit.second);
    }
  }

  void record(const TimedCommand& cmd, std::size_t index) {
    const LastSeen seen{cmd.slot, index};
    last_bank[static_cast<int>(cmd.bank)][kind_index(cmd.kind)] = seen;
    last_rank[kind_index(cmd.kind)] = seen;
  }

  void check_tfaw(const TimedCommand& cmd, std::size_t index) {
    for (const WindowRuleSpec& rule : table.windows) {
      if (rule.kind != cmd.kind) continue;
      while (!act_window.empty() &&
             cmd.slot - act_window.front().slot >= rule.window_slots) {
        act_window.pop_front();
      }
      act_window.push_back({cmd.slot, index});
      if (act_window.size() <= rule.max_count) continue;
      const LastSeen& oldest = act_window.front();
      Finding f;
      f.kind = FindingKind::kTimingViolation;
      f.severity = Severity::kError;
      f.classification = Classification::kUnexpected;
      f.rule = rule.rule;
      f.slot = cmd.slot;
      f.command_index = index;
      f.command = cmd.kind;
      f.bank = static_cast<int>(cmd.bank);
      f.actual_slots = cmd.slot - oldest.slot;
      f.required_slots = rule.window_slots;
      f.prior_slot = oldest.slot;
      f.prior_index = oldest.index;
      findings.push_back(std::move(f));
    }
  }

  BankState& bank(int id) { return banks[id]; }

  void precharge_bank(int id, std::uint64_t slot, std::size_t index) {
    BankState& state = bank(id);
    state.phase = BankPhase::kPrecharging;
    state.phase_since = slot;
    const LastSeen seen{slot, index};
    last_bank[id][kind_index(CommandKind::kPre)] = seen;
    last_rank[kind_index(CommandKind::kPre)] = seen;
  }

  void step(const TimedCommand& cmd, std::size_t index) {
    const int bank_id = static_cast<int>(cmd.bank);
    switch (cmd.kind) {
      case CommandKind::kAct: {
        BankState& state = bank(bank_id);
        if (state.effective(cmd.slot, table) == BankPhase::kOpen) {
          protocol_finding(FindingKind::kDoubleActivate, Severity::kError,
                           cmd, index);
        }
        check_pairwise(cmd, index);
        check_tfaw(cmd, index);
        state.phase = BankPhase::kOpen;
        record(cmd, index);
        break;
      }
      case CommandKind::kPre: {
        if (cmd.a10) {
          // PREA (precharge-all): per-bank PRE semantics for every bank
          // that is not already effectively idle; idle banks are skipped
          // without a diagnostic (blanket precharge is normal usage).
          for (auto& [id, state] : banks) {
            if (state.effective(cmd.slot, table) == BankPhase::kIdle) continue;
            TimedCommand per_bank = cmd;
            per_bank.bank = static_cast<dram::BankId>(id);
            check_pairwise(per_bank, index);
            precharge_bank(id, cmd.slot, index);
          }
          break;
        }
        BankState& state = bank(bank_id);
        const BankPhase phase = state.effective(cmd.slot, table);
        if (phase == BankPhase::kIdle || phase == BankPhase::kPrecharging) {
          protocol_finding(FindingKind::kPrechargeIdleBank, Severity::kWarning,
                           cmd, index);
        }
        check_pairwise(cmd, index);
        state.phase = BankPhase::kPrecharging;
        state.phase_since = cmd.slot;
        record(cmd, index);
        break;
      }
      case CommandKind::kWr:
      case CommandKind::kRd: {
        BankState& state = bank(bank_id);
        const BankPhase phase = state.effective(cmd.slot, table);
        if (phase == BankPhase::kIdle || phase == BankPhase::kPrecharging) {
          protocol_finding(cmd.kind == CommandKind::kRd
                               ? FindingKind::kReadClosedBank
                               : FindingKind::kWriteClosedBank,
                           Severity::kError, cmd, index);
        }
        check_pairwise(cmd, index);
        record(cmd, index);
        if (cmd.a10) {
          // Auto-precharge: the bank closes after the column access. The
          // implicit PRE is recorded for downstream tRP checks, but the
          // tRAS/tWR constraints on it are not modelled (the hardware
          // internally delays the precharge to satisfy them).
          precharge_bank(bank_id, cmd.slot, index);
        }
        break;
      }
      case CommandKind::kRef: {
        for (auto& [id, state] : banks) {
          if (state.effective(cmd.slot, table) == BankPhase::kOpen) {
            protocol_finding(FindingKind::kRefreshOpenBank, Severity::kError,
                             cmd, index);
            break;  // one diagnostic per REF, not one per open bank.
          }
        }
        check_pairwise(cmd, index);
        record(cmd, index);
        break;
      }
    }
  }
};

}  // namespace

namespace detail {

void classify_findings(std::vector<Finding>& findings,
                       const std::vector<Intent>& intents) {
  for (Finding& f : findings) {
    if (f.kind != FindingKind::kTimingViolation &&
        f.kind != FindingKind::kProgramCheck) {
      continue;
    }
    for (const Intent& intent : intents) {
      if (f.kind == FindingKind::kTimingViolation) {
        if (intent.check || intent.rule != *f.rule) continue;
      } else {
        if (!intent.check || *intent.check != *f.check) continue;
      }
      if (intent.bank != kAnyBank && intent.bank != f.bank) continue;
      f.classification = Classification::kIntended;
      f.severity = Severity::kNote;
      f.intent_label = intent.label;
      break;
    }
  }
}

void rank_findings(std::vector<Finding>& findings) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.severity != b.severity) return a.severity > b.severity;
                     if (a.slot != b.slot) return a.slot < b.slot;
                     return a.command_index < b.command_index;
                   });
}

}  // namespace detail

std::string Finding::message() const {
  std::ostringstream out;
  out << severity_name(severity) << ": slot " << slot << ' '
      << command_name(command, false);
  if (bank != kAnyBank) out << " bank" << bank;
  out << ": ";
  switch (kind) {
    case FindingKind::kTimingViolation:
      out << rule_name(*rule) << " violated";
      if (classification == Classification::kIntended) {
        out << " (intended";
        if (!intent_label.empty()) out << ": " << intent_label;
        out << ')';
      }
      if (rule == RuleId::kTfaw) {
        out << " — 5 ACTs within " << actual_slots + 1 << " slots (window "
            << required_slots << ')';
      } else {
        out << " — " << actual_slots << " slots since "
            << (prior_slot ? "prior command" : "?") << " at slot "
            << (prior_slot ? *prior_slot : 0) << " (min " << required_slots
            << ')';
      }
      break;
    case FindingKind::kReadClosedBank:
      out << "RD issued to a bank with no open row";
      break;
    case FindingKind::kWriteClosedBank:
      out << "WR issued to a bank with no open row";
      break;
    case FindingKind::kDoubleActivate:
      out << "ACT while the bank is already activating/open (missing PRE)";
      break;
    case FindingKind::kPrechargeIdleBank:
      out << "PRE of an already-idle bank";
      break;
    case FindingKind::kRefreshOpenBank:
      out << "REF while at least one bank is open";
      break;
    case FindingKind::kProgramCheck:
      out << check_name(*check);
      if (classification == Classification::kIntended) {
        out << " (intended";
        if (!intent_label.empty()) out << ": " << intent_label;
        out << ')';
      }
      if (!note.empty()) out << " — " << note;
      break;
  }
  return out.str();
}

bool Report::has_unexpected() const {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.classification == Classification::kUnexpected;
  });
}

std::size_t Report::count(Classification c) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [c](const Finding& f) { return f.classification == c; }));
}

std::string Report::to_string() const {
  std::ostringstream out;
  out << "verify: program '"
      << (program_name.empty() ? "<unnamed>" : program_name) << "': "
      << findings.size() << " finding" << (findings.size() == 1 ? "" : "s")
      << " (" << count(Classification::kIntended) << " intended, "
      << count(Classification::kUnexpected) << " unexpected)";
  for (const Finding& f : findings) {
    out << "\n  " << f.message();
  }
  return out.str();
}

VerifyError::VerifyError(Report report)
    : std::runtime_error(report.to_string()), report_(std::move(report)) {}

Report analyze(const bender::Program& program, const RuleTable& table) {
  Analysis analysis(table);
  const auto& commands = program.commands();
  for (std::size_t i = 0; i < commands.size(); ++i) {
    analysis.step(commands[i], i);
  }
  detail::classify_findings(analysis.findings, program.intents());
  detail::rank_findings(analysis.findings);
  Report report;
  report.program_name = program.name();
  report.findings = std::move(analysis.findings);
  return report;
}

Report analyze(const bender::Program& program,
               const dram::TimingParams& timings) {
  return analyze(program, RuleTable::ddr4(timings));
}

Mode parse_mode(std::string_view text) {
  if (text.empty() || text == "off" || text == "0" || text == "none") {
    return Mode::kOff;
  }
  if (text == "warn" || text == "1") return Mode::kWarn;
  if (text == "strict" || text == "2" || text == "error") return Mode::kStrict;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "simra: unknown SIMRA_VERIFY value '%.*s'; assuming 'warn'\n",
                 static_cast<int>(text.size()), text.data());
  }
  return Mode::kWarn;
}

namespace {

// -1 = not yet resolved from the environment; test overrides win.
std::atomic<int> g_mode{-1};
std::atomic<bool> g_mode_overridden{false};

}  // namespace

Mode global_mode() {
  int cached = g_mode.load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<Mode>(cached);
  const Mode mode = parse_mode(env_string("SIMRA_VERIFY", ""));
  g_mode.store(static_cast<int>(mode), std::memory_order_release);
  return mode;
}

void set_global_mode(std::optional<Mode> mode) {
  if (mode) {
    g_mode_overridden.store(true, std::memory_order_release);
    g_mode.store(static_cast<int>(*mode), std::memory_order_release);
  } else {
    g_mode_overridden.store(false, std::memory_order_release);
    g_mode.store(-1, std::memory_order_release);
  }
}

void gate(const bender::Program& program,
          const dram::TimingParams& timings) {
  const Mode mode = global_mode();
  if (mode == Mode::kOff) return;
  Report report = analyze(program, timings);
  if (!report.has_unexpected()) return;
  // Structured events come before the printed-warning dedup below: the
  // dedup set is shared across tasks (scheduling-dependent), but these
  // land in the calling task's own buffer, so the log stays deterministic.
  for (const Finding& f : report.findings) {
    if (f.classification != Classification::kUnexpected) continue;
    obs::emit_event("verify.finding", {{"program", report.program_name},
                                       {"message", f.message()}});
  }
  if (mode == Mode::kStrict) throw VerifyError(std::move(report));
  // Warn mode: characterization sweeps run thousands of structurally
  // identical programs, so deduplicate by rendered report before printing.
  static std::mutex mutex;
  static std::unordered_set<std::string> seen;
  const std::string rendered = report.to_string();
  std::lock_guard<std::mutex> lock(mutex);
  if (seen.insert(rendered).second) {
    std::fprintf(stderr, "%s\n", rendered.c_str());
  }
}

}  // namespace simra::verify
