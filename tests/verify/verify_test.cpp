#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "bender/executor.hpp"
#include "bender/program.hpp"
#include "dram/chip.hpp"
#include "dram/timing.hpp"
#include "verify/analyzer.hpp"
#include "verify/intent.hpp"
#include "verify/rules.hpp"

namespace simra::verify {
namespace {

using bender::CommandKind;
using bender::Program;

const dram::TimingParams kTimings = dram::TimingParams::ddr4_2666();

// DDR4-2666 timings in 1.5 ns Bender slots.
constexpr std::uint64_t kTrcdSlots = 9;   // 13.5 ns
constexpr std::uint64_t kTrasSlots = 24;  // 36.0 ns
constexpr std::uint64_t kTrpSlots = 9;    // 13.5 ns
constexpr std::uint64_t kTccdSlots = 4;   // 5.0 ns
constexpr std::uint64_t kTwrSlots = 10;   // 15.0 ns
constexpr std::uint64_t kTfawSlots = 14;  // 21.0 ns

Report run(const Program& p) { return analyze(p, kTimings); }

std::optional<Finding> find(const Report& report, FindingKind kind) {
  for (const Finding& f : report.findings)
    if (f.kind == kind) return f;
  return std::nullopt;
}

std::optional<Finding> find(const Report& report, RuleId rule) {
  for (const Finding& f : report.findings)
    if (f.kind == FindingKind::kTimingViolation && f.rule == rule) return f;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Rule table.

TEST(RuleTableTest, SlotsForRoundsUpAndToleratesExactMultiples) {
  EXPECT_EQ(slots_for(Nanoseconds{13.5}), 9u);
  EXPECT_EQ(slots_for(Nanoseconds{36.0}), 24u);
  EXPECT_EQ(slots_for(Nanoseconds{5.0}), 4u);    // 3.33 -> 4.
  EXPECT_EQ(slots_for(Nanoseconds{1.5}), 1u);
  EXPECT_EQ(slots_for(Nanoseconds{0.1}), 1u);
}

TEST(RuleTableTest, Ddr4TableCoversAllRules) {
  const RuleTable table = RuleTable::ddr4(kTimings);
  EXPECT_EQ(table.trp_slots, kTrpSlots);
  bool seen[7] = {};
  for (const RuleSpec& rule : table.pairwise)
    seen[static_cast<int>(rule.rule)] = true;
  for (const WindowRuleSpec& rule : table.windows)
    seen[static_cast<int>(rule.rule)] = true;
  for (RuleId id : {RuleId::kTrcd, RuleId::kTras, RuleId::kTrp, RuleId::kTccd,
                    RuleId::kTwr, RuleId::kTrfc, RuleId::kTfaw})
    EXPECT_TRUE(seen[static_cast<int>(id)]) << rule_name(id);
}

TEST(RuleTableTest, RuleNamesRoundTrip) {
  for (RuleId id : {RuleId::kTrcd, RuleId::kTras, RuleId::kTrp, RuleId::kTccd,
                    RuleId::kTwr, RuleId::kTrfc, RuleId::kTfaw})
    EXPECT_EQ(rule_from_name(rule_name(id)), id);
  EXPECT_FALSE(rule_from_name("tXYZ").has_value());
}

// ---------------------------------------------------------------------------
// Bank state machine.

TEST(StateMachineTest, ReadToClosedBankIsAnError) {
  Program p;
  p.rd(0, 0, 64);
  const Report report = run(p);
  const auto f = find(report, FindingKind::kReadClosedBank);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->classification, Classification::kUnexpected);
  EXPECT_EQ(f->slot, 0u);
  EXPECT_EQ(f->bank, 0);
  EXPECT_NE(f->message().find("slot 0"), std::string::npos);
  EXPECT_NE(f->message().find("RD"), std::string::npos);
}

TEST(StateMachineTest, WriteToClosedBankIsAnError) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRAS).pre(0)
      .delay_at_least(kTimings.tRP).wr(0, 0, BitVec(64));
  const Report report = run(p);
  EXPECT_TRUE(find(report, FindingKind::kWriteClosedBank).has_value());
}

TEST(StateMachineTest, DoubleActivateWithoutPrechargeIsAnError) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRAS).act(0, 2);
  const Report report = run(p);
  const auto f = find(report, FindingKind::kDoubleActivate);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(StateMachineTest, PrechargeOfIdleBankIsAWarning) {
  Program p;
  p.pre(3);
  const Report report = run(p);
  const auto f = find(report, FindingKind::kPrechargeIdleBank);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->bank, 3);
}

TEST(StateMachineTest, RefreshWithOpenBankIsAnError) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRCD).ref();
  const Report report = run(p);
  EXPECT_TRUE(find(report, FindingKind::kRefreshOpenBank).has_value());
}

TEST(StateMachineTest, RefreshAfterAllBanksClosedIsClean) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRAS).pre(0)
      .delay_at_least(kTimings.tRP).ref();
  EXPECT_TRUE(run(p).empty());
}

TEST(StateMachineTest, BankAgesToIdleAfterTrp) {
  // PRE of a bank whose earlier PRE has fully completed: the bank is
  // effectively idle again, so the second PRE draws the warning.
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRAS).pre(0)
      .delay_at_least(kTimings.tRP).pre(0);
  const Report report = run(p);
  EXPECT_TRUE(find(report, FindingKind::kPrechargeIdleBank).has_value());
}

TEST(StateMachineTest, ReadDuringActivationIsSequenceLegal) {
  // RD before tRCD elapses is *not* a closed-bank error — the bank is
  // activating; the early access surfaces as a tRCD timing violation.
  Program p;
  p.act(0, 1).delay(Nanoseconds{3.0}).rd(0, 0, 64);
  const Report report = run(p);
  EXPECT_FALSE(find(report, FindingKind::kReadClosedBank).has_value());
  const auto f = find(report, RuleId::kTrcd);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->actual_slots, 2u);
  EXPECT_EQ(f->required_slots, kTrcdSlots);
}

// ---------------------------------------------------------------------------
// Timing rules.

TEST(TimingRuleTest, NominalReadProgramIsClean) {
  Program p;
  p.act(0, 5)
      .delay_at_least(kTimings.tRCD)
      .rd(0, 0, 64)
      .delay_at_least(kTimings.tCCD)
      .pad_after_last(CommandKind::kAct, kTimings.tRAS)
      .pre(0)
      .delay_at_least(kTimings.tRP);
  const Report report = run(p);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(TimingRuleTest, ShortActToPreViolatesTras) {
  Program p;
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0);
  const auto f = find(run(p), RuleId::kTras);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->command, CommandKind::kPre);
  EXPECT_EQ(f->slot, 2u);
  EXPECT_EQ(f->actual_slots, 2u);
  EXPECT_EQ(f->required_slots, kTrasSlots);
  ASSERT_TRUE(f->prior_slot.has_value());
  EXPECT_EQ(*f->prior_slot, 0u);
}

TEST(TimingRuleTest, ShortPreToActViolatesTrp) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRAS).pre(0)
      .delay(Nanoseconds{3.0}).act(0, 2);
  const auto f = find(run(p), RuleId::kTrp);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->required_slots, kTrpSlots);
  EXPECT_EQ(f->actual_slots, 2u);
}

TEST(TimingRuleTest, BackToBackReadsViolateTccdOnce) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRCD).rd(0, 0, 64).rd(0, 64, 64);
  const Report report = run(p);
  const auto f = find(report, RuleId::kTccd);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->actual_slots, 1u);
  EXPECT_EQ(f->required_slots, kTccdSlots);
  // The RD/WR x RD/WR rule matrix must not multiply-report one gap.
  std::size_t tccd_count = 0;
  for (const Finding& finding : report.findings)
    if (finding.kind == FindingKind::kTimingViolation &&
        finding.rule == RuleId::kTccd)
      ++tccd_count;
  EXPECT_EQ(tccd_count, 1u);
}

TEST(TimingRuleTest, TccdAppliesAcrossBanks) {
  Program p;
  p.act(0, 1).act(1, 1).delay_at_least(kTimings.tRCD)
      .rd(0, 0, 64).rd(1, 0, 64);
  EXPECT_TRUE(find(run(p), RuleId::kTccd).has_value());
}

TEST(TimingRuleTest, EarlyPrechargeAfterWriteViolatesTwr) {
  Program p;
  // Park the WR late enough that tRAS is already satisfied, isolating tWR.
  p.act(0, 1).delay_at_least(kTimings.tRAS).wr(0, 0, BitVec(64))
      .delay(Nanoseconds{1.5}).pre(0);
  const Report report = run(p);
  const auto f = find(report, RuleId::kTwr);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->actual_slots, 1u);
  EXPECT_EQ(f->required_slots, kTwrSlots);
  EXPECT_FALSE(find(report, RuleId::kTras).has_value());
}

TEST(TimingRuleTest, ActivateTooSoonAfterRefreshViolatesTrfc) {
  Program p;
  p.ref().delay_at_least(kTimings.tRP).act(0, 1);
  const auto f = find(run(p), RuleId::kTrfc);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->required_slots, slots_for(kTimings.tRFC));
}

TEST(TimingRuleTest, FiveActsInWindowViolateTfaw) {
  Program p;
  for (int b = 0; b < 5; ++b) p.act(static_cast<dram::BankId>(b), 1);
  const auto f = find(run(p), RuleId::kTfaw);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->slot, 4u);  // the fifth ACT completes the violation.
  EXPECT_EQ(f->bank, 4);
  EXPECT_EQ(f->required_slots, kTfawSlots);
}

TEST(TimingRuleTest, FourActsInWindowAreLegal) {
  Program p;
  for (int b = 0; b < 4; ++b) p.act(static_cast<dram::BankId>(b), 1);
  EXPECT_FALSE(find(run(p), RuleId::kTfaw).has_value());
}

TEST(TimingRuleTest, SpacedActsDoNotViolateTfaw) {
  Program p;
  for (int b = 0; b < 6; ++b) {
    if (b > 0) p.delay(Nanoseconds{9.0});  // 6 slots apart: window holds 3.
    p.act(static_cast<dram::BankId>(b), 1);
  }
  EXPECT_FALSE(find(run(p), RuleId::kTfaw).has_value());
}

// ---------------------------------------------------------------------------
// A10 paths.

TEST(A10Test, PreaClosesEveryOpenBankWithoutDiagnostics) {
  Program p;
  p.act(0, 1).act(1, 1).delay_at_least(kTimings.tRAS).prea()
      .delay_at_least(kTimings.tRP).rd(0, 0, 64);
  const Report report = run(p);
  // Both banks were closed by PREA, so the RD hits a closed bank.
  EXPECT_TRUE(find(report, FindingKind::kReadClosedBank).has_value());
  EXPECT_FALSE(find(report, FindingKind::kPrechargeIdleBank).has_value());
}

TEST(A10Test, EarlyPreaViolatesTrasPerOpenBank) {
  Program p;
  p.act(0, 1).act(1, 1).delay(Nanoseconds{3.0}).prea();
  const Report report = run(p);
  std::size_t tras_count = 0;
  for (const Finding& f : report.findings)
    if (f.kind == FindingKind::kTimingViolation && f.rule == RuleId::kTras)
      ++tras_count;
  EXPECT_EQ(tras_count, 2u);  // one per open bank.
}

TEST(A10Test, AutoPrechargeReadClosesTheBank) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRCD)
      .rd(0, 0, 64, /*auto_precharge=*/true)
      .delay_at_least(kTimings.tRP).rd(0, 0, 64);
  const Report report = run(p);
  const auto f = find(report, FindingKind::kReadClosedBank);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->slot, 18u);
}

TEST(A10Test, ActTooSoonAfterAutoPrechargeViolatesTrp) {
  Program p;
  p.act(0, 1).delay_at_least(kTimings.tRCD)
      .rd(0, 0, 64, /*auto_precharge=*/true)
      .delay(Nanoseconds{3.0}).act(0, 2);
  EXPECT_TRUE(find(run(p), RuleId::kTrp).has_value());
}

// ---------------------------------------------------------------------------
// Intents.

TEST(IntentTest, ApaViolationsAreIntendedWithDeclaredIntents) {
  Program p;
  p.set_name("apa").expect(apa_intents(0));
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0).delay(Nanoseconds{3.0})
      .act(0, 2).delay_at_least(kTimings.tRAS).pre(0);
  const Report report = run(p);
  EXPECT_FALSE(report.has_unexpected()) << report.to_string();
  EXPECT_EQ(report.count(Classification::kIntended), 2u);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.severity, Severity::kNote);
    EXPECT_EQ(f.intent_label, "apa");
  }
}

TEST(IntentTest, IntentOnAnotherBankDoesNotMask) {
  Program p;
  p.expect(Intent{RuleId::kTras, /*bank=*/1, "apa"});
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0);
  const Report report = run(p);
  EXPECT_TRUE(report.has_unexpected());
}

TEST(IntentTest, AnyBankIntentMasksEveryBank) {
  Program p;
  p.expect(Intent{RuleId::kTras, kAnyBank, "frac"});
  p.act(2, 1).delay(Nanoseconds{1.5}).pre(2);
  EXPECT_FALSE(run(p).has_unexpected());
}

TEST(IntentTest, UnfiredIntentIsNotAnError) {
  // fig3 sweeps t1 through and past tRAS: the same builder declares the
  // intent whether or not the violation fires.
  Program p;
  p.expect(apa_intents(0));
  p.act(0, 1).delay_at_least(kTimings.tRAS).pre(0)
      .delay_at_least(kTimings.tRP).act(0, 2)
      .delay_at_least(kTimings.tRAS).pre(0);
  const Report report = run(p);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(IntentTest, UndeclaredExtraRuleSurfacesAsUnexpected) {
  // The acceptance scenario: an APA with a second, undeclared violation
  // (RD before tRCD) must keep the intended findings as notes but flag
  // the tRCD violation as a real bug.
  Program p;
  p.set_name("corrupt_apa").expect(apa_intents(0));
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0).delay(Nanoseconds{3.0})
      .act(0, 2).delay(Nanoseconds{3.0}).rd(0, 0, 64);
  const Report report = run(p);
  EXPECT_TRUE(report.has_unexpected());
  const auto f = find(report, RuleId::kTrcd);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->classification, Classification::kUnexpected);
  EXPECT_EQ(report.count(Classification::kIntended), 2u);
}

TEST(IntentTest, ProtocolErrorsAreNeverMaskedByIntents) {
  Program p;
  for (RuleId id : {RuleId::kTrcd, RuleId::kTras, RuleId::kTrp, RuleId::kTccd,
                    RuleId::kTwr, RuleId::kTrfc, RuleId::kTfaw})
    p.expect(Intent{id, kAnyBank, "blanket"});
  p.rd(0, 0, 64);
  EXPECT_TRUE(run(p).has_unexpected());
}

// ---------------------------------------------------------------------------
// Report rendering.

TEST(ReportTest, RanksErrorsAboveWarningsAboveNotes) {
  Program p;
  p.expect(frac_intents(0));
  p.pre(1);                                       // warning (idle PRE).
  p.delay(Nanoseconds{1.5}).act(0, 1).delay(Nanoseconds{1.5}).pre(0);  // note.
  p.delay(Nanoseconds{1.5}).rd(2, 0, 64);         // error (closed bank).
  const Report report = run(p);
  ASSERT_EQ(report.findings.size(), 3u);
  EXPECT_EQ(report.findings[0].severity, Severity::kError);
  EXPECT_EQ(report.findings[1].severity, Severity::kWarning);
  EXPECT_EQ(report.findings[2].severity, Severity::kNote);
}

TEST(ReportTest, RenderingNamesSlotCommandAndRule) {
  Program p;
  p.set_name("demo");
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0);
  const std::string text = run(p).to_string();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("slot 2"), std::string::npos);
  EXPECT_NE(text.find("PRE"), std::string::npos);
  EXPECT_NE(text.find("tRAS"), std::string::npos);
  EXPECT_NE(text.find("1 unexpected"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Modes and the executor gate.

TEST(ModeTest, ParsesEnvValues) {
  EXPECT_EQ(parse_mode(""), Mode::kOff);
  EXPECT_EQ(parse_mode("off"), Mode::kOff);
  EXPECT_EQ(parse_mode("none"), Mode::kOff);
  EXPECT_EQ(parse_mode("0"), Mode::kOff);
  EXPECT_EQ(parse_mode("warn"), Mode::kWarn);
  EXPECT_EQ(parse_mode("1"), Mode::kWarn);
  EXPECT_EQ(parse_mode("strict"), Mode::kStrict);
  EXPECT_EQ(parse_mode("error"), Mode::kStrict);
  EXPECT_EQ(parse_mode("2"), Mode::kStrict);
  EXPECT_EQ(parse_mode("bogus"), Mode::kWarn);  // fail towards visibility.
}

class GateTest : public ::testing::Test {
 protected:
  void TearDown() override { set_global_mode(std::nullopt); }

  dram::Chip chip_{dram::VendorProfile::hynix_m(), 7};
  bender::Executor executor_{&chip_};
};

TEST_F(GateTest, StrictModeThrowsOnReadToClosedBank) {
  set_global_mode(Mode::kStrict);
  Program p;
  p.set_name("corrupt_read");
  p.rd(0, 0, 64);
  try {
    executor_.run(p);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("slot 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("RD"), std::string::npos);
    EXPECT_TRUE(e.report().has_unexpected());
  }
}

TEST_F(GateTest, StrictModeThrowsOnUndeclaredTimingViolation) {
  set_global_mode(Mode::kStrict);
  Program p;
  p.set_name("corrupt_apa").expect(apa_intents(0));
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0).delay(Nanoseconds{3.0})
      .act(0, 2).delay(Nanoseconds{3.0}).rd(0, 0, 64);
  try {
    executor_.run(p);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("tRCD"), std::string::npos);
  }
}

TEST_F(GateTest, StrictModePassesIntendedViolations) {
  set_global_mode(Mode::kStrict);
  Program p;
  p.set_name("apa").expect(apa_intents(0));
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0).delay(Nanoseconds{3.0})
      .act(0, 2).delay_at_least(kTimings.tRAS).pre(0)
      .delay_at_least(kTimings.tRP);
  EXPECT_NO_THROW(executor_.run(p));
}

TEST_F(GateTest, WarnModeNeverThrows) {
  set_global_mode(Mode::kWarn);
  Program p;
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0).delay_at_least(kTimings.tRP);
  EXPECT_NO_THROW(executor_.run(p));
}

TEST_F(GateTest, OffModeSkipsAnalysis) {
  set_global_mode(Mode::kOff);
  Program p;
  p.act(0, 1).delay(Nanoseconds{3.0}).pre(0).delay_at_least(kTimings.tRP);
  EXPECT_NO_THROW(executor_.run(p));
}

}  // namespace
}  // namespace simra::verify
