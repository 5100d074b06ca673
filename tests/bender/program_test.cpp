#include "bender/program.hpp"

#include <gtest/gtest.h>

#include "support/same_program.hpp"
#include "verify/intent.hpp"

namespace simra::bender {
namespace {

using simra::Nanoseconds;
using simra::testing::expect_same_program;

TEST(Program, CommandsLandOnCursorSlots) {
  Program p;
  p.act(0, 5).delay(Nanoseconds{3.0}).pre(0).delay(Nanoseconds{1.5}).act(0, 9);
  const auto& cmds = p.commands();
  ASSERT_EQ(cmds.size(), 3u);
  EXPECT_EQ(cmds[0].slot, 0u);
  EXPECT_EQ(cmds[1].slot, 2u);  // 3 ns = 2 slots.
  EXPECT_EQ(cmds[2].slot, 3u);  // +1.5 ns.
  EXPECT_DOUBLE_EQ(cmds[1].time_ns(), 3.0);
  EXPECT_DOUBLE_EQ(cmds[2].time_ns(), 4.5);
}

TEST(Program, BackToBackCommandsAutoAdvanceOneSlot) {
  Program p;
  p.act(0, 1);
  p.act(1, 2);  // no explicit delay: next slot.
  EXPECT_EQ(p.commands()[1].slot, 1u);
}

TEST(Program, DelayMustBeSlotMultiple) {
  Program p;
  EXPECT_THROW(p.delay(Nanoseconds{2.0}), std::invalid_argument);
  EXPECT_THROW(p.delay(Nanoseconds{0.0}), std::invalid_argument);
  EXPECT_THROW(p.delay(Nanoseconds{-1.5}), std::invalid_argument);
  EXPECT_NO_THROW(p.delay(Nanoseconds{36.0}));
}

TEST(Program, DelayAtLeastRoundsUp) {
  Program p;
  p.act(0, 0).delay_at_least(Nanoseconds{13.5}).pre(0);
  EXPECT_EQ(p.commands()[1].slot, 9u);  // ceil(13.5 / 1.5) = 9.
  Program q;
  q.act(0, 0).delay_at_least(Nanoseconds{13.6}).pre(0);
  EXPECT_EQ(q.commands()[1].slot, 10u);
}

TEST(Program, DelayAtLeastMeasuresFromTheLastCommand) {
  // The rounding rule: the *next command* lands ceil(delay / 1.5) slots
  // after the last command. An unoccupied cursor partway through the gap
  // counts towards it, so an exact slot multiple never over-advances.
  Program p;
  p.act(0, 0).delay(Nanoseconds{1.5}).delay_at_least(Nanoseconds{3.0}).pre(0);
  EXPECT_EQ(p.commands()[1].slot, 2u);  // 2 slots after the ACT, not 3.

  // A cursor already past the requested gap stays put.
  Program q;
  q.act(0, 0).delay(Nanoseconds{9.0}).delay_at_least(Nanoseconds{3.0}).pre(0);
  EXPECT_EQ(q.commands()[1].slot, 6u);

  // Chained delay_at_least calls overlap rather than accumulate: the
  // larger of tCCD and tWR wins, as both are measured from the last WR.
  Program r;
  r.wr(0, 0, BitVec(8))
      .delay_at_least(Nanoseconds{5.0})    // 4 slots.
      .delay_at_least(Nanoseconds{15.0})   // 10 slots from the WR.
      .pre(0);
  EXPECT_EQ(r.commands()[1].slot, 10u);

  // On an empty program the gap is measured from slot 0.
  Program s;
  s.delay_at_least(Nanoseconds{3.0}).act(0, 0);
  EXPECT_EQ(s.commands()[0].slot, 2u);
}

TEST(Program, PadAfterLastEnforcesGapFromNamedCommand) {
  Program p;
  p.act(0, 0)
      .delay_at_least(Nanoseconds{13.5})  // WR at slot 9.
      .wr(0, 0, BitVec(8))
      .delay_at_least(Nanoseconds{15.0})  // cursor at slot 19.
      .pad_after_last(CommandKind::kAct, Nanoseconds{36.0})
      .pre(0);
  EXPECT_EQ(p.commands()[2].slot, 24u);  // tRAS from the ACT, not the WR.

  // Already-satisfied gaps are a no-op.
  Program q;
  q.act(0, 0).delay(Nanoseconds{60.0})
      .pad_after_last(CommandKind::kAct, Nanoseconds{36.0}).pre(0);
  EXPECT_EQ(q.commands()[1].slot, 40u);

  Program r;
  EXPECT_THROW(r.pad_after_last(CommandKind::kAct, Nanoseconds{36.0}),
               std::logic_error);
}

TEST(Program, NamesIntentsAndPrea) {
  Program p;
  p.set_name("demo").expect(verify::apa_intents(3));
  p.act(3, 1).delay(Nanoseconds{3.0}).prea();
  EXPECT_EQ(p.name(), "demo");
  ASSERT_EQ(p.intents().size(), 2u);
  EXPECT_EQ(p.intents()[0].bank, 3);
  EXPECT_TRUE(p.commands()[1].a10);
  EXPECT_EQ(p.commands()[1].kind, CommandKind::kPre);
  EXPECT_NE(p.to_string().find("PRE all"), std::string::npos);
}

TEST(Program, DurationCoversLastSlot) {
  Program p;
  EXPECT_DOUBLE_EQ(p.duration_ns(), 0.0);
  p.act(0, 0);
  EXPECT_DOUBLE_EQ(p.duration_ns(), 1.5);
  p.delay(Nanoseconds{3.0}).pre(0);
  EXPECT_DOUBLE_EQ(p.duration_ns(), 4.5);
}

TEST(Program, PayloadCommands) {
  Program p;
  BitVec data(16);
  data.fill_byte(0xFF);
  p.wr(2, 5, data).delay(Nanoseconds{1.5}).rd(2, 5, 16).ref();
  const auto& cmds = p.commands();
  EXPECT_EQ(cmds[0].kind, CommandKind::kWr);
  EXPECT_EQ(cmds[0].bank, 2);
  EXPECT_EQ(cmds[0].col, 5u);
  EXPECT_EQ(cmds[0].data.popcount(), 16u);
  EXPECT_EQ(cmds[1].kind, CommandKind::kRd);
  EXPECT_EQ(cmds[1].nbits, 16u);
  EXPECT_EQ(cmds[2].kind, CommandKind::kRef);
}

TEST(Program, ListingContainsTimesAndMnemonics) {
  Program p;
  p.act(1, 42).delay(Nanoseconds{3.0}).pre(1);
  const std::string listing = p.to_string();
  EXPECT_NE(listing.find("ACT"), std::string::npos);
  EXPECT_NE(listing.find("row=42"), std::string::npos);
  EXPECT_NE(listing.find("3ns\tPRE"), std::string::npos);
}

TEST(CommandKind, Names) {
  EXPECT_EQ(to_string(CommandKind::kAct), "ACT");
  EXPECT_EQ(to_string(CommandKind::kRef), "REF");
}

TEST(Program, AppendKeepsRelativeSlotsAndCarriesIntents) {
  Program a;
  a.act(0, 1).delay(Nanoseconds{3.0}).pre(0);  // slots 0, 2 (cursor occupied).

  Program b;
  b.expect(verify::apa_intents(4));
  b.act(0, 2).delay(Nanoseconds{1.5}).act(0, 3);  // slots 0, 1.

  a.append(b);
  const auto& cmds = a.commands();
  ASSERT_EQ(cmds.size(), 4u);
  // The occupied cursor advances one slot before the splice, so b lands
  // at base slot 3 with its 1-slot internal gap intact.
  EXPECT_EQ(cmds[2].slot, 3u);
  EXPECT_EQ(cmds[3].slot, 4u);
  EXPECT_EQ(cmds[3].row, 3u);
  // b's intents ride along so the fused program verifies like its parts.
  EXPECT_EQ(a.intents().size(), verify::apa_intents(4).size());
  // Cursor lands on b's last command: one more append continues from it.
  EXPECT_DOUBLE_EQ(a.duration_ns(), 7.5);
}

TEST(Program, AppendIntoEmptyProgramIsIdentity) {
  Program b;
  b.act(1, 7).delay(Nanoseconds{3.0}).pre(1);

  Program fused;
  fused.append(b);
  ASSERT_EQ(fused.commands().size(), 2u);
  EXPECT_EQ(fused.commands()[0].slot, 0u);
  EXPECT_EQ(fused.commands()[1].slot, 2u);
  EXPECT_DOUBLE_EQ(fused.duration_ns(), b.duration_ns());
}

TEST(Program, AppendRespectsCallerInsertedSpacing) {
  Program a;
  a.act(0, 1);
  Program b;
  b.act(0, 2);

  a.delay_at_least(Nanoseconds{6.0}).append(b);
  ASSERT_EQ(a.commands().size(), 2u);
  EXPECT_EQ(a.commands()[1].slot, 4u);  // 6 ns = 4 slots after the ACT.
}

/// A named one-row program with intents: ACT, WR(payload), RD, PRE.
Program one_row_program(dram::RowAddr row, BitVec payload) {
  Program p;
  p.set_name("one_row")
      .expect(verify::Intent::violate(verify::RuleId::kTras, 2, "one_row"));
  p.act(2, row)
      .delay_at_least(Nanoseconds{13.5})
      .wr(2, 0, std::move(payload))
      .delay_at_least(Nanoseconds{15.0})
      .rd(2, 0, 64)
      .delay(Nanoseconds{3.0})
      .pre(2)
      .delay_at_least(Nanoseconds{13.5});
  return p;
}

TEST(Program, RepointChangesOnlyTheRowAndPayload) {
  BitVec a(130);
  BitVec b(130);
  a.set_range(3, 40, true);
  b.set_range(90, 17, true);
  Program p = one_row_program(10, a);

  // Row only: the payload stays.
  p.repoint(77);
  expect_same_program(p, one_row_program(77, a));
  // Row and payload.
  p.repoint(5, &b);
  expect_same_program(p, one_row_program(5, b));
  // Back again: nothing of the first build was lost on the way.
  p.repoint(10, &a);
  expect_same_program(p, one_row_program(10, a));
}

}  // namespace
}  // namespace simra::bender
