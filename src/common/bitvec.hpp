#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace simra {

class Rng;

/// Adds the 64 one-bit lanes of `word` into a bit-sliced vertical
/// counter: planes[p] holds bit p of every lane's running count, so one
/// add is a ripple carry over at most planes.size() word ops instead of
/// 64 scalar increments. A carry out of the top plane is dropped, so
/// counting n words needs bit_width(n) planes.
inline void bitslice_add(std::span<std::uint64_t> planes,
                         std::uint64_t word) noexcept {
  for (std::size_t p = 0; word != 0 && p < planes.size(); ++p) {
    const std::uint64_t prev = planes[p];
    planes[p] ^= word;
    word &= prev;
  }
}

/// The lanes whose bit-sliced count (planes as bitslice_add builds them)
/// exceeds `half`, decided from the top plane down: a lane is greater at
/// the first plane where its count has a 1 and `half` a 0, while every
/// higher plane matched. `half` must fit in planes.size() bits.
inline std::uint64_t bitslice_greater(std::span<const std::uint64_t> planes,
                                      std::size_t half) noexcept {
  std::uint64_t greater = 0;
  std::uint64_t equal = ~0ULL;
  for (std::size_t p = planes.size(); p-- > 0;) {
    if ((half >> p) & 1) {
      equal &= planes[p];
    } else {
      greater |= equal & planes[p];
      equal &= ~planes[p];
    }
  }
  return greater;
}

/// Fixed-length vector of bits with word-parallel bulk operations.
///
/// Used to represent DRAM row contents (one bit per cell on a wordline) and
/// the data operands of PUD operations. Bit i of word w holds cell index
/// 64*w + i.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t size, bool value = false);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  void fill(bool value);
  /// Fills with a repeating byte pattern, e.g. 0xAA -> 10101010...
  void fill_byte(std::uint8_t byte);
  /// Fills with uniformly random bits.
  void randomize(Rng& rng);

  /// Number of set bits.
  std::size_t popcount() const noexcept;
  /// Number of positions where *this and other differ (sizes must match).
  std::size_t hamming_distance(const BitVec& other) const;
  /// Number of positions where *this and other agree (sizes must match).
  std::size_t matches(const BitVec& other) const;

  BitVec operator~() const;
  BitVec& operator&=(const BitVec& other);
  BitVec& operator|=(const BitVec& other);
  BitVec& operator^=(const BitVec& other);

  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }
  bool operator==(const BitVec& other) const;

  /// Bitwise majority across an odd number of equally sized vectors,
  /// word-parallel: each word is counted in bit-sliced planes
  /// (bitslice_add) and compared against half the input count.
  static BitVec majority(const std::vector<const BitVec*>& inputs);

  /// Copies `len` bits starting at `pos` into a new vector.
  BitVec slice(std::size_t pos, std::size_t len) const;
  /// Overwrites bits [pos, pos + src.size()) with `src`.
  void assign_range(std::size_t pos, const BitVec& src);
  /// Overwrites bits of *this with `src` where `mask` is set (sizes equal).
  void assign_masked(const BitVec& src, const BitVec& mask);

  /// First `n` bits rendered as '0'/'1' (debugging aid).
  std::string to_string(std::size_t n = 64) const;

  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Bits per storage word; bit i of word w holds cell index word_bits*w + i.
  static constexpr std::size_t word_bits() noexcept { return 64; }
  /// Number of storage words (ceil(size / 64)).
  std::size_t word_count() const noexcept { return words_.size(); }
  /// Storage word `wi` (bits [64*wi, 64*wi + 64)).
  std::uint64_t word(std::size_t wi) const;
  /// Overwrites storage word `wi`; bits beyond size() are dropped. The
  /// word-parallel write path for kernels that pack 64 predicate results
  /// at a time.
  void set_word(std::size_t wi, std::uint64_t value);
  /// Sets bits [pos, pos + len) to `value`, a word at a time.
  void set_range(std::size_t pos, std::size_t len, bool value);

 private:
  void check_index(std::size_t i) const;
  void check_same_size(const BitVec& other) const;
  void clear_trailing() noexcept;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace simra
