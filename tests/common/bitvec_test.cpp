#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace simra {
namespace {

TEST(BitVec, DefaultEmpty) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructFilled) {
  BitVec zeros(100, false);
  BitVec ones(100, true);
  EXPECT_EQ(zeros.popcount(), 0u);
  EXPECT_EQ(ones.popcount(), 100u);  // trailing bits must not leak.
}

TEST(BitVec, SetGetFlip) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(129);
  EXPECT_FALSE(v.get(129));
  v.set(64, false);
  EXPECT_EQ(v.popcount(), 1u);
}

TEST(BitVec, IndexOutOfRangeThrows) {
  BitVec v(8);
  EXPECT_THROW(v.get(8), std::out_of_range);
  EXPECT_THROW(v.set(8, true), std::out_of_range);
  EXPECT_THROW(v.flip(100), std::out_of_range);
}

TEST(BitVec, FillByte) {
  BitVec v(24);
  v.fill_byte(0xAA);  // 10101010 LSB-first: bit 0 = 0, bit 1 = 1.
  EXPECT_FALSE(v.get(0));
  EXPECT_TRUE(v.get(1));
  EXPECT_FALSE(v.get(8));
  EXPECT_TRUE(v.get(9));
  EXPECT_EQ(v.popcount(), 12u);
}

TEST(BitVec, RandomizeRoughlyHalf) {
  Rng rng(3);
  BitVec v(10000);
  v.randomize(rng);
  EXPECT_NEAR(static_cast<double>(v.popcount()), 5000.0, 200.0);
}

TEST(BitVec, HammingAndMatches) {
  BitVec a(70);
  BitVec b(70);
  a.set(3, true);
  a.set(65, true);
  b.set(65, true);
  EXPECT_EQ(a.hamming_distance(b), 1u);
  EXPECT_EQ(a.matches(b), 69u);
  BitVec c(71);
  EXPECT_THROW((void)a.hamming_distance(c), std::invalid_argument);
}

TEST(BitVec, LogicalOperators) {
  BitVec a(8);
  BitVec b(8);
  a.fill_byte(0xCC);
  b.fill_byte(0xAA);
  EXPECT_EQ((a & b).popcount(), 2u);  // 0x88
  EXPECT_EQ((a | b).popcount(), 6u);  // 0xEE
  EXPECT_EQ((a ^ b).popcount(), 4u);  // 0x66
  EXPECT_EQ((~a).popcount(), 4u);
}

TEST(BitVec, EqualityIncludesSize) {
  BitVec a(8);
  BitVec b(8);
  BitVec c(9);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  b.set(0, true);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, MajorityMatchesPerBitCount) {
  // Every odd X up to 63 plus one past 128 (eight count planes), at widths
  // around the word boundaries.
  std::vector<unsigned> xs;
  for (unsigned x = 1; x <= 63; x += 2) xs.push_back(x);
  xs.push_back(129);
  Rng rng(5);
  for (const std::size_t width : {1u, 63u, 64u, 65u, 200u, 8192u}) {
    std::vector<BitVec> rows(129, BitVec(width));
    for (BitVec& r : rows) r.randomize(rng);
    for (const unsigned x : xs) {
      std::vector<const BitVec*> refs;
      for (unsigned r = 0; r < x; ++r) refs.push_back(&rows[r]);
      const BitVec maj = BitVec::majority(refs);
      ASSERT_EQ(maj.size(), width);
      for (std::size_t i = 0; i < width; ++i) {
        unsigned ones = 0;
        for (unsigned r = 0; r < x; ++r) ones += rows[r].get(i) ? 1 : 0;
        ASSERT_EQ(maj.get(i), ones > x / 2)
            << "X " << x << " width " << width << " bit " << i;
      }
      if (width % 64 != 0) {
        EXPECT_EQ(maj.words().back() >> (width % 64), 0u)
            << "X " << x << " width " << width;
      }
    }
  }
}

TEST(BitVec, MajorityRejectsEvenOrEmpty) {
  BitVec a(4);
  EXPECT_THROW((void)BitVec::majority({}), std::invalid_argument);
  EXPECT_THROW((void)BitVec::majority({&a, &a}), std::invalid_argument);
}

TEST(BitVec, MajorityReplicationInvariant) {
  // MAJ6-style replication keeps functionality: MAJ(A,B,C,A,B,C) would be
  // even; the library identity is MAJ9(3xA,3xB,3xC) == MAJ3(A,B,C).
  Rng rng(11);
  BitVec a(128), b(128), c(128);
  a.randomize(rng);
  b.randomize(rng);
  c.randomize(rng);
  const BitVec maj3 = BitVec::majority({&a, &b, &c});
  const BitVec maj9 =
      BitVec::majority({&a, &b, &c, &a, &b, &c, &a, &b, &c});
  EXPECT_EQ(maj3, maj9);
}

TEST(BitVec, SliceAlignedAndUnaligned) {
  Rng rng(13);
  BitVec v(300);
  v.randomize(rng);
  const BitVec aligned = v.slice(64, 128);
  for (std::size_t i = 0; i < 128; ++i)
    ASSERT_EQ(aligned.get(i), v.get(64 + i));
  const BitVec unaligned = v.slice(3, 100);
  for (std::size_t i = 0; i < 100; ++i)
    ASSERT_EQ(unaligned.get(i), v.get(3 + i));
  EXPECT_THROW((void)v.slice(250, 100), std::out_of_range);
}

TEST(BitVec, AssignRange) {
  Rng rng(17);
  BitVec dst(300, true);
  BitVec src(128);
  src.randomize(rng);
  dst.assign_range(64, src);  // aligned path.
  for (std::size_t i = 0; i < 128; ++i) ASSERT_EQ(dst.get(64 + i), src.get(i));
  EXPECT_TRUE(dst.get(0));
  EXPECT_TRUE(dst.get(299));

  BitVec dst2(300, false);
  dst2.assign_range(5, src);  // unaligned path.
  for (std::size_t i = 0; i < 128; ++i) ASSERT_EQ(dst2.get(5 + i), src.get(i));
  EXPECT_THROW(dst.assign_range(250, src), std::out_of_range);
}

TEST(BitVec, AssignMasked) {
  BitVec dst(16, false);
  BitVec src(16, true);
  BitVec mask(16, false);
  mask.set(2, true);
  mask.set(15, true);
  dst.assign_masked(src, mask);
  EXPECT_EQ(dst.popcount(), 2u);
  EXPECT_TRUE(dst.get(2));
  EXPECT_TRUE(dst.get(15));
}

TEST(BitVec, ToString) {
  BitVec v(8);
  v.set(1, true);
  EXPECT_EQ(v.to_string(4), "0100");
}

TEST(BitVec, WordAccess) {
  BitVec v(100);
  v.set(0, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_EQ(v.word_count(), 2u);
  EXPECT_EQ(BitVec::word_bits(), 64u);
  EXPECT_EQ(v.word(0), 1ULL);
  EXPECT_EQ(v.word(1), 1ULL | (1ULL << 35));
  EXPECT_THROW(v.word(2), std::out_of_range);
}

TEST(BitVec, SetWordClearsTrailingBits) {
  BitVec v(100);
  v.set_word(1, ~0ULL);  // bits 100..127 of the raw word must be dropped.
  EXPECT_EQ(v.word(1), (1ULL << 36) - 1);
  EXPECT_EQ(v.popcount(), 36u);
  v.set_word(0, 0xF0F0ULL);
  EXPECT_EQ(v.word(0), 0xF0F0ULL);
  EXPECT_THROW(v.set_word(2, 0), std::out_of_range);
}

TEST(BitVec, SetRange) {
  BitVec v(200);
  v.set_range(3, 130, true);  // spans three words, unaligned both ends.
  for (std::size_t i = 0; i < 200; ++i)
    ASSERT_EQ(v.get(i), i >= 3 && i < 133) << i;
  v.set_range(60, 10, false);
  for (std::size_t i = 60; i < 70; ++i) ASSERT_FALSE(v.get(i));
  v.set_range(0, 0, true);  // empty range is a no-op.
  EXPECT_FALSE(v.get(0));
  EXPECT_THROW(v.set_range(100, 101, true), std::out_of_range);
}

}  // namespace
}  // namespace simra
