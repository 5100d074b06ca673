#include "verify/rules.hpp"

namespace simra::verify {

using bender::CommandKind;

RuleTable RuleTable::ddr4(const dram::TimingParams& t) {
  RuleTable table;
  table.trp_slots = slots_for(t.tRP);

  const auto trcd = slots_for(t.tRCD);
  const auto tras = slots_for(t.tRAS);
  const auto trp = slots_for(t.tRP);
  const auto tccd = slots_for(t.tCCD);
  const auto twr = slots_for(t.tWR);
  const auto trfc = slots_for(t.tRFC);

  table.pairwise = {
      {RuleId::kTrcd, CommandKind::kAct, CommandKind::kRd, Scope::kSameBank, trcd},
      {RuleId::kTrcd, CommandKind::kAct, CommandKind::kWr, Scope::kSameBank, trcd},
      {RuleId::kTras, CommandKind::kAct, CommandKind::kPre, Scope::kSameBank, tras},
      {RuleId::kTrp, CommandKind::kPre, CommandKind::kAct, Scope::kSameBank, trp},
      {RuleId::kTccd, CommandKind::kRd, CommandKind::kRd, Scope::kRank, tccd},
      {RuleId::kTccd, CommandKind::kRd, CommandKind::kWr, Scope::kRank, tccd},
      {RuleId::kTccd, CommandKind::kWr, CommandKind::kRd, Scope::kRank, tccd},
      {RuleId::kTccd, CommandKind::kWr, CommandKind::kWr, Scope::kRank, tccd},
      {RuleId::kTwr, CommandKind::kWr, CommandKind::kPre, Scope::kSameBank, twr},
      {RuleId::kTrfc, CommandKind::kRef, CommandKind::kAct, Scope::kRank, trfc},
      {RuleId::kTrfc, CommandKind::kRef, CommandKind::kRef, Scope::kRank, trfc},
  };
  table.windows = {
      {RuleId::kTfaw, CommandKind::kAct, slots_for(t.tFAW), 4},
  };
  return table;
}

}  // namespace simra::verify
