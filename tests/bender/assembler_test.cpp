#include "bender/assembler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "bender/executor.hpp"
#include "common/rng.hpp"
#include "dram/chip.hpp"

namespace simra::bender {
namespace {

TEST(Assembler, ParsesTheApaSequence) {
  const Program p = Assembler::assemble(R"(
# MAJ APA at (t1 = 1.5, t2 = 3)
ACT bank=0 row=127
DELAY 1.5
PRE bank=0
DELAY 3
ACT bank=0 row=128
)");
  ASSERT_EQ(p.commands().size(), 3u);
  EXPECT_EQ(p.commands()[0].kind, CommandKind::kAct);
  EXPECT_EQ(p.commands()[0].row, 127u);
  EXPECT_EQ(p.commands()[1].kind, CommandKind::kPre);
  EXPECT_DOUBLE_EQ(p.commands()[1].time_ns(), 1.5);
  EXPECT_DOUBLE_EQ(p.commands()[2].time_ns(), 4.5);
}

TEST(Assembler, ParsesPayloads) {
  const Program p = Assembler::assemble(
      "WR bank=2 col=64 bits=16 pattern=0xAA\n"
      "WR bank=2 col=128 hex=f0\n"
      "RD bank=2 col=0 bits=8192\n"
      "REF\n");
  const auto& cmds = p.commands();
  ASSERT_EQ(cmds.size(), 4u);
  EXPECT_EQ(cmds[0].data.size(), 16u);
  EXPECT_EQ(cmds[0].data.popcount(), 8u);  // 0xAA twice.
  EXPECT_EQ(cmds[1].data.size(), 8u);
  // hex=f0: nibble 'f' = bits 0..3, nibble '0' = bits 4..7.
  EXPECT_TRUE(cmds[1].data.get(0));
  EXPECT_TRUE(cmds[1].data.get(3));
  EXPECT_FALSE(cmds[1].data.get(4));
  EXPECT_EQ(cmds[2].nbits, 8192u);
  EXPECT_EQ(cmds[3].kind, CommandKind::kRef);
}

TEST(Assembler, WaitRoundsUpLikeDelayAtLeast) {
  const Program p = Assembler::assemble("ACT bank=0 row=0\nWAIT 13.5\nPRE bank=0\n");
  EXPECT_EQ(p.commands()[1].slot, 9u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    Assembler::assemble("ACT bank=0 row=0\nBOGUS\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(Assembler::assemble("ACT bank=0\n"), std::invalid_argument);
  EXPECT_THROW(Assembler::assemble("DELAY 2.0\n"), std::invalid_argument);
  EXPECT_THROW(Assembler::assemble("WR bank=0 col=0\n"), std::invalid_argument);
  EXPECT_THROW(Assembler::assemble("ACT bank=zz row=0\n"),
               std::invalid_argument);
}

TEST(Assembler, RejectsNegativeAndOutOfRangeOperands) {
  // Each of these once assembled by wrapping or truncating the operand.
  const std::pair<std::string, std::string> cases[] = {
      {"ACT bank=256 row=5", "bank=256"},
      {"ACT bank=1 row=4294967301", "row=4294967301"},
      {"RD bank=0 col=4294967296 bits=64", "col=4294967296"},
      {"WR bank=0 col=0 bits=8 pattern=0x1ff", "pattern=0x1ff"},
      {"EXPECT tRAS bank=4294967296", "bank=4294967296"},
      {"EXPECT tRAS bank=-1", "bank=-1"},
      {"ACT bank=-1 row=0", "bank=-1"},
      {"PRE bank=0x100", "bank=0x100"},
      {"RD bank=0 col=0 bits=-64", "bits=-64"},
      {"RD bank=0 col=0 bits=99999999999999999999",
       "bits=99999999999999999999"},
      {"WR bank=0 col=0 hex=ff ap=2", "ap=2"},
  };
  for (const auto& [statement, operand] : cases) {
    try {
      Assembler::assemble("REF\n" + statement + "\n");
      ADD_FAILURE() << "assembled: " << statement;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + operand + "'"), std::string::npos) << what;
    }
  }
}

TEST(Assembler, AcceptsEachFieldsLargestValue) {
  const Program p = Assembler::assemble(
      "EXPECT tRAS bank=255\n"
      "ACT bank=255 row=4294967295\n"
      "WR bank=0 col=4294967295 bits=8 pattern=0xff\n");
  ASSERT_EQ(p.intents().size(), 1u);
  EXPECT_EQ(p.intents()[0].bank, 255);
  const auto& cmds = p.commands();
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].bank, 255u);
  EXPECT_EQ(cmds[0].row, 4294967295u);
  EXPECT_EQ(cmds[1].col, 4294967295u);
  EXPECT_EQ(cmds[1].data.popcount(), 8u);
}

TEST(Assembler, DisassembleRoundTrip) {
  Program original;
  Rng rng(5);
  BitVec payload(128);
  payload.randomize(rng);
  original.act(3, 1234)
      .delay(Nanoseconds{36.0})
      .pre(3)
      .delay(Nanoseconds{3.0})
      .act(3, 77)
      .delay_at_least(Nanoseconds{13.5})
      .wr(3, 64, payload)
      .delay_at_least(Nanoseconds{15.0})
      .rd(3, 0, 512)
      .delay(Nanoseconds{1.5})
      .ref();

  const std::string text = Assembler::disassemble(original);
  const Program parsed = Assembler::assemble(text);
  ASSERT_EQ(parsed.commands().size(), original.commands().size());
  for (std::size_t i = 0; i < parsed.commands().size(); ++i) {
    const TimedCommand& a = original.commands()[i];
    const TimedCommand& b = parsed.commands()[i];
    EXPECT_EQ(a.slot, b.slot) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.bank, b.bank) << i;
    EXPECT_EQ(a.row, b.row) << i;
    EXPECT_EQ(a.col, b.col) << i;
    EXPECT_EQ(a.nbits, b.nbits) << i;
    EXPECT_EQ(a.data, b.data) << i;
  }
}

TEST(Assembler, ParsesExpectPreaAndAutoPrecharge) {
  const Program p = Assembler::assemble(R"(
EXPECT tRAS bank=0 label=apa
EXPECT tRP
ACT bank=0 row=5
DELAY 3
WR bank=0 col=64 bits=8 pattern=0xFF ap=1
DELAY 3
RD bank=0 col=64 bits=8 ap=1
DELAY 3
PREA
)");
  ASSERT_EQ(p.intents().size(), 2u);
  EXPECT_EQ(p.intents()[0].rule, verify::RuleId::kTras);
  EXPECT_EQ(p.intents()[0].bank, 0);
  EXPECT_EQ(p.intents()[0].label, "apa");
  EXPECT_EQ(p.intents()[1].rule, verify::RuleId::kTrp);
  EXPECT_EQ(p.intents()[1].bank, verify::kAnyBank);
  const auto& cmds = p.commands();
  ASSERT_EQ(cmds.size(), 4u);
  EXPECT_TRUE(cmds[1].a10);  // WR ap=1
  EXPECT_TRUE(cmds[2].a10);  // RD ap=1
  EXPECT_EQ(cmds[3].kind, CommandKind::kPre);
  EXPECT_TRUE(cmds[3].a10);  // PREA

  // ap=0 is explicit "no auto-precharge".
  const Program q = Assembler::assemble("RD bank=1 col=0 bits=8 ap=0\n");
  EXPECT_FALSE(q.commands()[0].a10);

  EXPECT_THROW(Assembler::assemble("EXPECT\n"), std::invalid_argument);
  EXPECT_THROW(Assembler::assemble("EXPECT tBOGUS\n"), std::invalid_argument);
}

TEST(Assembler, DisassembleRoundTripPreservesIntentsAndA10) {
  Program original;
  original.expect(verify::Intent{verify::RuleId::kTras, 2, "apa"})
      .expect(verify::Intent{verify::RuleId::kTfaw, verify::kAnyBank, ""});
  BitVec payload(64);
  payload.fill_byte(0xC3);
  original.act(2, 99)
      .delay(Nanoseconds{13.5})
      .wr(2, 0, payload, /*auto_precharge=*/true)
      .delay(Nanoseconds{6.0})
      .act(2, 100)
      .delay(Nanoseconds{13.5})
      .rd(2, 64, 64, /*auto_precharge=*/true)
      .delay(Nanoseconds{3.0})
      .prea();

  const std::string text = Assembler::disassemble(original);
  EXPECT_NE(text.find("EXPECT tRAS bank=2 label=apa"), std::string::npos);
  EXPECT_NE(text.find("EXPECT tFAW"), std::string::npos);
  EXPECT_NE(text.find("ap=1"), std::string::npos);
  EXPECT_NE(text.find("PREA"), std::string::npos);

  const Program parsed = Assembler::assemble(text);
  ASSERT_EQ(parsed.intents().size(), original.intents().size());
  for (std::size_t i = 0; i < parsed.intents().size(); ++i) {
    EXPECT_EQ(parsed.intents()[i].rule, original.intents()[i].rule) << i;
    EXPECT_EQ(parsed.intents()[i].bank, original.intents()[i].bank) << i;
    EXPECT_EQ(parsed.intents()[i].label, original.intents()[i].label) << i;
  }
  ASSERT_EQ(parsed.commands().size(), original.commands().size());
  for (std::size_t i = 0; i < parsed.commands().size(); ++i) {
    const TimedCommand& a = original.commands()[i];
    const TimedCommand& b = parsed.commands()[i];
    EXPECT_EQ(a.slot, b.slot) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.bank, b.bank) << i;
    EXPECT_EQ(a.a10, b.a10) << i;
    EXPECT_EQ(a.data, b.data) << i;
  }
}

TEST(Assembler, AssembledProgramRunsOnAChip) {
  // End to end: text -> program -> executor -> device.
  dram::Chip chip(dram::VendorProfile::hynix_m(), 55);
  Executor exec(&chip);
  const Program p = Assembler::assemble(R"(
ACT bank=0 row=0
DELAY 3
PRE bank=0
DELAY 3
ACT bank=0 row=7
WAIT 36
RD bank=0 col=0 bits=64
WAIT 5
PRE bank=0
WAIT 13.5
)");
  const auto result = exec.run(p);
  ASSERT_EQ(result.reads.size(), 1u);
  EXPECT_EQ(chip.bank(0).stats().simultaneous_activations, 1u);
}

}  // namespace
}  // namespace simra::bender
