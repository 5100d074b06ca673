#include "verify/dataflow.hpp"

#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "dram/bank_stepper.hpp"

namespace simra::verify {
namespace {

using bender::CommandKind;
using bender::TimedCommand;
using dram::BankStepper;
using dram::RowAddr;
using dram::SubarrayId;

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

bool defined(RowOrigin o) { return o != RowOrigin::kUnknown; }

struct RowVal {
  RowOrigin origin = RowOrigin::kUnknown;
  const BitVec* payload = nullptr;  ///< full-row WR payload, if removable.
  std::size_t def_index = kNpos;    ///< index of that WR (DCE candidate).
  std::uint64_t def_slot = 0;
  bool observed = false;  ///< value consumed (RD / copy source / APA vote).

  /// Redefines the value with no statically known payload.
  void define(RowOrigin o) {
    origin = o;
    payload = nullptr;
    def_index = kNpos;
    observed = false;
  }
};

struct PendingReopen {
  std::size_t pre_index = 0;
  std::size_t act_index = 0;
};

struct BankFlow {
  BankStepper step;
  std::size_t pre_index = kNpos;
  RowVal buffer;
  /// Per (subarray, internal local row) value state.
  std::map<std::pair<SubarrayId, RowAddr>, RowVal> rows;
  /// Redundant-reopen candidacy: armed at an eligible PRE, matched at the
  /// next ACT, confirmed at the PRE after that (see step()).
  bool reopen_eligible = false;
  RowAddr reopen_row = 0;
  std::optional<PendingReopen> pending;

  BankFlow(const ProgramContext& ctx, double trp_ns)
      : step(ctx.layout, trp_ns, ctx.gates_violated_timings) {}

  RowVal& row(SubarrayId sa, RowAddr local) {
    return rows[{sa, local}];
  }
};

struct Flow {
  const bender::Program& program;
  const ProgramContext& ctx;
  DataflowResult out;
  std::map<int, BankFlow> banks;
  const double trp_ns;

  Flow(const bender::Program& p, const ProgramContext& c)
      : program(p),
        ctx(c),
        trp_ns(static_cast<double>(c.table->trp_slots) * bender::kSlotNs) {}

  BankFlow& bank(int id) {
    auto it = banks.find(id);
    if (it == banks.end()) it = banks.emplace(id, BankFlow(ctx, trp_ns)).first;
    return it->second;
  }

  SubarrayId subarray_of(RowAddr global) const {
    return static_cast<SubarrayId>(global / ctx.layout->rows());
  }

  RowAddr internal_local(RowAddr global) const {
    const RowAddr local =
        static_cast<RowAddr>(global % ctx.layout->rows());
    return ctx.scrambler ? ctx.scrambler->to_internal(local) : local;
  }

  Finding& check_finding(CheckId id, Severity severity,
                         const TimedCommand& cmd, std::size_t index,
                         std::string note) {
    Finding f;
    f.kind = FindingKind::kProgramCheck;
    f.severity = severity;
    f.classification = Classification::kUnexpected;
    f.check = id;
    f.slot = cmd.slot;
    f.command_index = index;
    f.command = cmd.kind;
    f.bank = static_cast<int>(cmd.bank);
    f.note = std::move(note);
    out.findings.push_back(std::move(f));
    return out.findings.back();
  }

  void mark_observed(BankFlow& b, const BankStepper::Released& rows) {
    for (RowAddr r : rows.rows) b.row(rows.sa, r).observed = true;
  }

  /// A precharge that cut the sense window short left the closed cells
  /// at ~VDD/2.
  void close(BankFlow& b, const BankStepper::Released& closed) {
    if (!closed.frac) return;
    for (RowAddr r : closed.rows) b.row(closed.sa, r).define(RowOrigin::kFrac);
  }

  /// The row buffer after one row opens (a frac row re-senses to fresh
  /// noise).
  void load_buffer(BankFlow& b, SubarrayId sa, RowAddr local) {
    RowVal& rv = b.row(sa, local);
    if (rv.origin == RowOrigin::kFrac) rv.define(RowOrigin::kOpaque);
    b.buffer = rv;
  }

  /// The PRE after a matched reopen pair decides removability: only a
  /// nominal (sense-complete) follow-up precharge guarantees the removal
  /// cannot flip a later frac threshold (removal anchors t1 to the
  /// earlier ACT, which can only lengthen it).
  void resolve_pending(BankFlow& b, bool sense_complete) {
    if (!b.pending) return;
    const PendingReopen pending = *b.pending;
    b.pending.reset();
    if (!sense_complete) return;
    out.redundant_reopens.emplace_back(pending.pre_index, pending.act_index);
    const TimedCommand& act = program.commands()[pending.act_index];
    Finding& f = check_finding(
        CheckId::kRedundantReopen, Severity::kWarning, act, pending.act_index,
        "PRE;ACT pair re-opens the already-open row with no state change");
    f.prior_slot = program.commands()[pending.pre_index].slot;
    f.prior_index = pending.pre_index;
  }

  void cancel_reopen_tracking(BankFlow& b) {
    b.reopen_eligible = false;
    b.pending.reset();
  }

  void precharge(BankFlow& b, const TimedCommand& cmd, std::size_t index,
                 bool removable_candidate) {
    b.reopen_eligible = false;
    // An ignored PRE kills candidacy too: the chip ignores it only because
    // the bank is closing. With the candidate pair removed the bank would
    // still be open and this command would take effect.
    if (!b.step.pre(cmd.time_ns())) return;
    resolve_pending(b, b.step.sa_latched());
    const std::span<const RowAddr> driven = b.step.driven();
    if (removable_candidate && driven.size() == 1 && b.step.sa_latched()) {
      const RowVal& rv = b.row(b.step.open_sa(), driven.front());
      if (rv.origin == RowOrigin::kWritten || rv.origin == RowOrigin::kCopied ||
          rv.origin == RowOrigin::kOpaque) {
        b.reopen_eligible = true;
        b.reopen_row = driven.front();
      }
    }
    b.pre_index = index;
  }

  void simultaneous(BankFlow& b, const TimedCommand& cmd, std::size_t index,
                    const BankStepper::ActVerdict& v) {
    // The previously open rows' charge votes in the resolution, and every
    // driven row is redefined by the restored outcome.
    mark_observed(b, v.prior);
    const SubarrayId sa = v.prior.sa;
    const std::span<const RowAddr> driven = b.step.driven();

    ApaEvent event;
    event.slot = cmd.slot;
    event.command_index = index;
    event.bank = static_cast<int>(cmd.bank);
    event.sa = sa;
    event.rows.assign(driven.begin(), driven.end());
    out.apas.push_back(std::move(event));

    std::size_t known = 0;
    std::size_t unknown = 0;
    for (RowAddr r : driven) {
      if (defined(b.row(sa, r).origin)) {
        ++known;
      } else {
        ++unknown;
      }
    }
    if (!ctx.assume_defined_on_entry && unknown > 0) {
      std::ostringstream note;
      note << unknown << " of " << driven.size()
           << " driven rows never initialized in this program";
      check_finding(CheckId::kApaUninitializedRow, Severity::kWarning, cmd,
                    index, note.str());
    }
    // The charge-share (MAJ) regime: every driven row's cells vote. A
    // group where some rows were staged in-program and others still hold
    // whatever data earlier programs left is the PULSAR replication bug —
    // stale voters silently skew the majority. All-stale groups are the
    // characterization sweeps themselves, so only the mix is flagged.
    if (!v.sa_latched && driven.size() >= 3 && known > 0 && unknown > 0) {
      std::ostringstream note;
      note << known << " of " << driven.size()
           << " driven rows staged in-program, " << unknown
           << " hold stale data — MAJ operands under-replicated";
      check_finding(CheckId::kUnderReplicatedApa, Severity::kWarning, cmd,
                    index, note.str());
    }

    for (RowAddr r : driven) b.row(sa, r).define(RowOrigin::kOpaque);
    b.buffer = RowVal{};
    b.buffer.origin = RowOrigin::kOpaque;
  }

  void act(const TimedCommand& cmd, std::size_t index) {
    BankFlow& b = bank(static_cast<int>(cmd.bank));
    const SubarrayId sa = subarray_of(cmd.row);
    const RowAddr local = internal_local(cmd.row);
    const BankStepper::ActVerdict v = b.step.act(sa, local, cmd.time_ns());
    switch (v.kind) {
      case BankStepper::Act::kIgnored:
        return;
      case BankStepper::Act::kGated:
        b.reopen_eligible = false;
        return;
      case BankStepper::Act::kSimultaneous:
        cancel_reopen_tracking(b);
        simultaneous(b, cmd, index, v);
        return;
      case BankStepper::Act::kConsecutive:
        // RowClone regime: the still-driven SA overwrites the destination
        // with the row buffer — the buffer (and its source rows) is
        // consumed.
        cancel_reopen_tracking(b);
        mark_observed(b, v.prior);
        close(b, v.prior);
        load_buffer(b, sa, local);
        if (v.sa_latched) {
          RowVal& rv = b.row(sa, local);
          rv.define(RowOrigin::kCopied);
          b.buffer = rv;
        }
        return;
      case BankStepper::Act::kSingle: {
        // A nominal reopen of the one row the closing PRE left open.
        const bool redundant = b.reopen_eligible && v.prior.sa == sa &&
                               v.prior.rows.size() == 1 &&
                               v.prior.rows.front() == local &&
                               local == b.reopen_row;
        cancel_reopen_tracking(b);
        close(b, v.prior);
        load_buffer(b, sa, local);
        if (redundant) b.pending = PendingReopen{b.pre_index, index};
        return;
      }
    }
  }

  void write(const TimedCommand& cmd, std::size_t index) {
    BankFlow& b = bank(static_cast<int>(cmd.bank));
    if (!b.step.open()) {
      b.reopen_eligible = false;  // would execute if the pair were removed.
      return;                     // ignored by the chip.
    }
    const bool full_row = cmd.col == 0 && cmd.data.size() == ctx.columns;
    const std::span<const RowAddr> driven = b.step.driven();
    if (driven.size() == 1) {
      RowVal& rv = b.row(b.step.open_sa(), driven.front());
      if (full_row && !cmd.a10 && rv.origin == RowOrigin::kWritten &&
          rv.def_index != kNpos && !rv.observed) {
        out.dead_stores.push_back(rv.def_index);
        Finding& f = check_finding(
            CheckId::kDeadStore, Severity::kWarning, cmd, index,
            "full-row WR never observed before this overwrite");
        f.prior_slot = rv.def_slot;
        f.prior_index = rv.def_index;
      }
      rv.origin = RowOrigin::kWritten;
      rv.observed = false;
      if (full_row && !cmd.a10) {
        rv.payload = &cmd.data;
        rv.def_index = index;
        rv.def_slot = cmd.slot;
      } else {
        rv.payload = nullptr;
        rv.def_index = kNpos;
      }
    } else {
      // Multi-row write-through: the per-row overdrive masks make each
      // row an unknown mix of payload and previous charge.
      for (RowAddr r : driven)
        b.row(b.step.open_sa(), r).define(RowOrigin::kOpaque);
    }
    b.buffer = RowVal{};
    b.buffer.origin = RowOrigin::kWritten;
    if (full_row && !cmd.a10) b.buffer.payload = &cmd.data;
    if (cmd.a10) {
      // WRA auto-precharge: a real PRE for phase tracking, but never half
      // of a removable pair (removing it would drop the write too).
      precharge(b, cmd, index, /*removable_candidate=*/false);
    }
  }

  void read(const TimedCommand& cmd, std::size_t index) {
    BankFlow& b = bank(static_cast<int>(cmd.bank));
    if (!b.step.open()) {
      b.reopen_eligible = false;
      return;  // the chip would throw; the analyzer flags it.
    }
    if (!ctx.assume_defined_on_entry &&
        b.buffer.origin == RowOrigin::kUnknown) {
      check_finding(CheckId::kReadUninitialized, Severity::kWarning, cmd,
                    index,
                    "row buffer derives from a row never initialized in "
                    "this program");
    }
    b.buffer.observed = true;
    for (RowAddr r : b.step.driven())
      b.row(b.step.open_sa(), r).observed = true;
    if (cmd.a10) precharge(b, cmd, index, /*removable_candidate=*/false);
  }

  void refresh(const TimedCommand& cmd) {
    for (auto& [id, b] : banks) {
      close(b, b.step.refresh(cmd.time_ns()));
      // A refresh between a candidate PRE and its reopening ACT would be
      // swallowed by the removal; give up candidacy conservatively.
      b.reopen_eligible = false;
    }
  }

  void step(const TimedCommand& cmd, std::size_t index) {
    switch (cmd.kind) {
      case CommandKind::kAct:
        act(cmd, index);
        return;
      case CommandKind::kPre:
        if (cmd.a10) {
          // PREA closes every bank at once: never removable.
          for (auto& [id, b] : banks)
            precharge(b, cmd, index, /*removable_candidate=*/false);
          return;
        }
        precharge(bank(static_cast<int>(cmd.bank)), cmd, index,
                  /*removable_candidate=*/true);
        return;
      case CommandKind::kWr:
        write(cmd, index);
        return;
      case CommandKind::kRd:
        read(cmd, index);
        return;
      case CommandKind::kRef:
        refresh(cmd);
        return;
    }
  }
};

}  // namespace

DataflowResult dataflow(const bender::Program& program,
                        const ProgramContext& ctx) {
  if (ctx.table == nullptr || ctx.layout == nullptr)
    throw std::invalid_argument("dataflow needs a rule table and a layout");
  Flow flow(program, ctx);
  const auto& commands = program.commands();
  for (std::size_t i = 0; i < commands.size(); ++i)
    flow.step(commands[i], i);
  for (const auto& [id, b] : flow.banks)
    for (const auto& [key, rv] : b.rows)
      flow.out.rows.push_back(
          RowFate{id, key.first, key.second, rv.origin, rv.payload});
  detail::classify_findings(flow.out.findings, program.intents());
  detail::rank_findings(flow.out.findings);
  return std::move(flow.out);
}

}  // namespace simra::verify
