#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "bender/program.hpp"

namespace simra::testing {

/// Expects two programs to be the same program: name, extent, cursor,
/// intents, and every command's slot and operands.
inline void expect_same_program(const bender::Program& a,
                                const bender::Program& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.extent_slots(), b.extent_slots());
  EXPECT_EQ(a.cursor_slot(), b.cursor_slot());
  ASSERT_EQ(a.intents().size(), b.intents().size());
  for (std::size_t i = 0; i < a.intents().size(); ++i) {
    EXPECT_EQ(a.intents()[i].rule, b.intents()[i].rule);
    EXPECT_EQ(a.intents()[i].bank, b.intents()[i].bank);
    EXPECT_EQ(a.intents()[i].label, b.intents()[i].label);
    EXPECT_EQ(a.intents()[i].check, b.intents()[i].check);
  }
  ASSERT_EQ(a.commands().size(), b.commands().size());
  for (std::size_t i = 0; i < a.commands().size(); ++i) {
    const bender::TimedCommand& x = a.commands()[i];
    const bender::TimedCommand& y = b.commands()[i];
    EXPECT_EQ(x.slot, y.slot) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.bank, y.bank) << i;
    EXPECT_EQ(x.row, y.row) << i;
    EXPECT_EQ(x.col, y.col) << i;
    EXPECT_EQ(x.nbits, y.nbits) << i;
    EXPECT_EQ(x.data, y.data) << i;
    EXPECT_EQ(x.a10, y.a10) << i;
  }
}

}  // namespace simra::testing
