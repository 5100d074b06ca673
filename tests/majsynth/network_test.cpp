#include "majsynth/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace simra::majsynth {
namespace {

TEST(Network, ConstantsAndNot) {
  Network net;
  const int zero = net.const_zero();
  const int one = net.const_one();
  const int a = net.add_input("a");
  const int na = net.add_not(a);
  net.mark_output(zero);
  net.mark_output(one);
  net.mark_output(na);
  const auto out = net.evaluate({0xF0F0F0F0F0F0F0F0ull});
  EXPECT_EQ(out[0], 0ull);
  EXPECT_EQ(out[1], ~0ull);
  EXPECT_EQ(out[2], ~0xF0F0F0F0F0F0F0F0ull);
}

TEST(Network, ConstNodesAreShared) {
  Network net;
  EXPECT_EQ(net.const_zero(), net.const_zero());
  EXPECT_EQ(net.const_one(), net.const_one());
}

TEST(Network, MajorityGateTruth) {
  Network net;
  const int a = net.add_input();
  const int b = net.add_input();
  const int c = net.add_input();
  net.mark_output(net.add_maj({a, b, c}));
  // 8 input combinations packed into the low 8 bits.
  const std::uint64_t wa = 0b10101010;
  const std::uint64_t wb = 0b11001100;
  const std::uint64_t wc = 0b11110000;
  const auto out = net.evaluate({wa, wb, wc});
  EXPECT_EQ(out[0] & 0xFF, 0b11101000u);  // MAJ truth table.
}

TEST(Network, WeightedMajorityViaRepeatedInputs) {
  Network net;
  const int a = net.add_input();
  const int b = net.add_input();
  const int c = net.add_input();
  // MAJ5(a, a, b, c, 0) == a AND (b OR c) ... verify by truth table:
  net.mark_output(net.add_maj({a, a, b, c, net.const_zero()}));
  const std::uint64_t wa = 0b10101010;
  const std::uint64_t wb = 0b11001100;
  const std::uint64_t wc = 0b11110000;
  const auto out = net.evaluate({wa, wb, wc});
  const std::uint64_t expected = wa & (wb | wc);
  EXPECT_EQ(out[0] & 0xFF, expected & 0xFF);
}

TEST(Network, MajorityGateMatchesPerBitCount) {
  // Every odd fan-in from 3 to 63 over distinct random input words: the
  // bit-sliced count must give each bit's majority of its inputs.
  Rng rng(0x3a7);
  for (std::size_t fanin = 3; fanin <= 63; fanin += 2) {
    Network net;
    std::vector<int> inputs;
    for (std::size_t i = 0; i < fanin; ++i) inputs.push_back(net.add_input());
    net.mark_output(net.add_maj(inputs));
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::uint64_t> words(fanin);
      for (auto& w : words) w = rng();
      std::uint64_t want = 0;
      for (int bit = 0; bit < 64; ++bit) {
        std::size_t ones = 0;
        for (const std::uint64_t w : words) ones += (w >> bit) & 1ULL;
        if (ones > fanin / 2) want |= 1ULL << bit;
      }
      ASSERT_EQ(net.evaluate(words)[0], want) << "fan-in " << fanin;
    }
  }
}

TEST(Network, RejectsBadGates) {
  Network net;
  const int a = net.add_input();
  EXPECT_THROW((void)net.add_maj({a, a}), std::invalid_argument);
  EXPECT_THROW((void)net.add_maj({a}), std::invalid_argument);
  EXPECT_THROW((void)net.add_maj({a, a, 99}), std::out_of_range);
  EXPECT_THROW((void)net.add_not(-1), std::out_of_range);
  EXPECT_THROW(net.mark_output(42), std::out_of_range);
}

TEST(Network, EvaluateChecksInputCount) {
  Network net;
  net.add_input();
  net.add_input();
  EXPECT_THROW((void)net.evaluate({0ull}), std::invalid_argument);
}

TEST(Network, CostCountsGatesByFanin) {
  Network net;
  const int a = net.add_input();
  const int b = net.add_input();
  const int m3 = net.add_maj({a, b, net.const_zero()});
  const int m5 = net.add_maj({a, b, m3, m3, net.const_one()});
  net.add_not(m5);
  net.add_not(a);
  const NetworkCost cost = net.cost();
  EXPECT_EQ(cost.maj_by_fanin.at(3), 1u);
  EXPECT_EQ(cost.maj_by_fanin.at(5), 1u);
  EXPECT_EQ(cost.not_gates, 2u);
  EXPECT_EQ(cost.total_maj(), 2u);
  EXPECT_EQ(cost.max_fanin(), 5u);
}

}  // namespace
}  // namespace simra::majsynth
