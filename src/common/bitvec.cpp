#include "common/bitvec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "common/rng.hpp"

namespace simra {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_needed(std::size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

/// BitVec::majority over words [w, w + B) of every input, into dst.
template <std::size_t B>
void majority_block(const std::vector<const BitVec*>& inputs, std::size_t w,
                    std::size_t n_planes, std::size_t half,
                    std::uint64_t* dst) {
  std::array<std::uint64_t, 64 * B> storage;
  const std::span<std::uint64_t> planes(storage.data(), n_planes * B);
  std::fill(planes.begin(), planes.end(), 0);
  for (const BitVec* v : inputs)
    bitslice_add<B>(planes,
                    std::span<const std::uint64_t, B>(v->words().data() + w, B));
  bitslice_greater<B>(planes, half, std::span<std::uint64_t, B>(dst + w, B));
}
}  // namespace

BitVec::BitVec(std::size_t size, bool value)
    : size_(size), words_(words_needed(size), value ? ~0ULL : 0ULL) {
  clear_trailing();
}

void BitVec::check_index(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitVec index out of range");
}

void BitVec::check_same_size(const BitVec& other) const {
  if (size_ != other.size_) throw std::invalid_argument("BitVec size mismatch");
}

void BitVec::clear_trailing() noexcept {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) words_.back() &= (1ULL << rem) - 1;
}

bool BitVec::get(std::size_t i) const {
  check_index(i);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVec::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value)
    words_[i / kWordBits] |= mask;
  else
    words_[i / kWordBits] &= ~mask;
}

void BitVec::flip(std::size_t i) {
  check_index(i);
  words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

void BitVec::fill(bool value) {
  for (auto& w : words_) w = value ? ~0ULL : 0ULL;
  clear_trailing();
}

void BitVec::fill_byte(std::uint8_t byte) {
  std::uint64_t word = 0;
  for (int i = 0; i < 8; ++i) word |= static_cast<std::uint64_t>(byte) << (8 * i);
  for (auto& w : words_) w = word;
  clear_trailing();
}

void BitVec::randomize(Rng& rng) {
  for (auto& w : words_) w = rng();
  clear_trailing();
}

std::size_t BitVec::popcount() const noexcept {
  std::size_t total = 0;
  for (auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitVec::hamming_distance(const BitVec& other) const {
  check_same_size(other);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    total += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  return total;
}

std::size_t BitVec::matches(const BitVec& other) const {
  return size_ - hamming_distance(other);
}

BitVec BitVec::operator~() const {
  BitVec out = *this;
  for (auto& w : out.words_) w = ~w;
  out.clear_trailing();
  return out;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

BitVec BitVec::majority(const std::vector<const BitVec*>& inputs) {
  if (inputs.empty() || inputs.size() % 2 == 0)
    throw std::invalid_argument("majority needs an odd, non-zero input count");
  const std::size_t n = inputs.front()->size();
  for (const BitVec* v : inputs)
    if (v->size() != n) throw std::invalid_argument("majority input size mismatch");

  BitVec out(n);
  const std::size_t half = inputs.size() / 2;
  const auto n_planes = static_cast<std::size_t>(std::bit_width(inputs.size()));
  std::uint64_t* const dst = out.words_.data();
  const std::size_t words = out.words_.size();
  std::size_t w = 0;
  for (; w + kMajorityBlockWords <= words; w += kMajorityBlockWords)
    majority_block<kMajorityBlockWords>(inputs, w, n_planes, half, dst);
  for (; w < words; ++w) majority_block<1>(inputs, w, n_planes, half, dst);
  out.clear_trailing();
  return out;
}

BitVec BitVec::slice(std::size_t pos, std::size_t len) const {
  if (pos + len > size_) throw std::out_of_range("slice out of range");
  BitVec out(len);
  if (pos % kWordBits == 0) {
    const std::size_t first = pos / kWordBits;
    for (std::size_t w = 0; w < out.words_.size(); ++w)
      out.words_[w] = words_[first + w];
    out.clear_trailing();
    return out;
  }
  for (std::size_t i = 0; i < len; ++i) out.set(i, get(pos + i));
  return out;
}

void BitVec::assign_range(std::size_t pos, const BitVec& src) {
  if (pos + src.size() > size_) throw std::out_of_range("assign_range out of range");
  if (pos % kWordBits == 0 &&
      (src.size() % kWordBits == 0 || pos + src.size() == size_)) {
    const std::size_t first = pos / kWordBits;
    for (std::size_t w = 0; w < src.words_.size(); ++w)
      words_[first + w] = src.words_[w];
    clear_trailing();
    return;
  }
  for (std::size_t i = 0; i < src.size(); ++i) set(pos + i, src.get(i));
}

void BitVec::assign_masked(const BitVec& src, const BitVec& mask) {
  check_same_size(src);
  check_same_size(mask);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = (words_[i] & ~mask.words_[i]) | (src.words_[i] & mask.words_[i]);
  }
}

std::uint64_t BitVec::word(std::size_t wi) const {
  if (wi >= words_.size()) throw std::out_of_range("BitVec word out of range");
  return words_[wi];
}

void BitVec::set_word(std::size_t wi, std::uint64_t value) {
  if (wi >= words_.size()) throw std::out_of_range("BitVec word out of range");
  words_[wi] = value;
  if (wi + 1 == words_.size()) clear_trailing();
}

void BitVec::set_range(std::size_t pos, std::size_t len, bool value) {
  if (pos + len > size_) throw std::out_of_range("set_range out of range");
  if (len == 0) return;
  const std::size_t first = pos / kWordBits;
  const std::size_t last = (pos + len - 1) / kWordBits;
  for (std::size_t w = first; w <= last; ++w) {
    std::uint64_t mask = ~0ULL;
    if (w == first) mask &= ~0ULL << (pos % kWordBits);
    const std::size_t end_bit = (pos + len - 1) % kWordBits;
    if (w == last && end_bit != kWordBits - 1)
      mask &= (1ULL << (end_bit + 1)) - 1;
    if (value)
      words_[w] |= mask;
    else
      words_[w] &= ~mask;
  }
}

std::string BitVec::to_string(std::size_t n) const {
  const std::size_t limit = std::min(n, size_);
  std::string out;
  out.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) out.push_back(get(i) ? '1' : '0');
  return out;
}

}  // namespace simra
