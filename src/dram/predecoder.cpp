#include "dram/predecoder.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace simra::dram {

PredecoderLayout::PredecoderLayout(std::vector<unsigned> fanouts)
    : fanouts_(std::move(fanouts)) {
  if (fanouts_.empty()) throw std::invalid_argument("layout needs >= 1 pre-decoder");
  rows_ = 1;
  for (unsigned f : fanouts_) {
    if (f < 2) throw std::invalid_argument("pre-decoder fanout must be >= 2");
    rows_ *= f;
  }
}

PredecoderLayout PredecoderLayout::for_subarray_rows(std::size_t rows) {
  switch (rows) {
    case 512:
      // A(RA[0]), B(RA[1:2]), C(RA[3:4]), D(RA[5:6]), E(RA[7:8]); §7.1.
      return PredecoderLayout({2, 4, 4, 4, 4});
    case 640:
      // SK Hynix M-die variant: one 5-way tier (5*4*4*4*2).
      return PredecoderLayout({2, 4, 4, 4, 5});
    case 1024:
      // Micron 16Gb dies: five 2-bit pre-decoders (4^5).
      return PredecoderLayout({4, 4, 4, 4, 4});
    default:
      throw std::invalid_argument("unsupported subarray size");
  }
}

std::vector<unsigned> PredecoderLayout::digits(RowAddr local_row) const {
  if (local_row >= rows_) throw std::out_of_range("local row out of range");
  std::vector<unsigned> out(fanouts_.size());
  RowAddr rest = local_row;
  for (std::size_t i = 0; i < fanouts_.size(); ++i) {
    out[i] = rest % fanouts_[i];
    rest /= fanouts_[i];
  }
  return out;
}

RowAddr PredecoderLayout::compose(std::span<const unsigned> digits) const {
  if (digits.size() != fanouts_.size())
    throw std::invalid_argument("digit count does not match field count");
  RowAddr row = 0;
  RowAddr stride = 1;
  for (std::size_t i = 0; i < fanouts_.size(); ++i) {
    if (digits[i] >= fanouts_[i]) throw std::out_of_range("digit exceeds fanout");
    row += digits[i] * stride;
    stride *= fanouts_[i];
  }
  return row;
}

unsigned PredecoderLayout::differing_fields(RowAddr a, RowAddr b) const {
  if (a >= rows_ || b >= rows_) throw std::out_of_range("local row out of range");
  unsigned k = 0;
  for (unsigned f : fanouts_) {
    k += (a % f != b % f) ? 1u : 0u;
    a /= f;
    b /= f;
  }
  return k;
}

std::vector<RowAddr> PredecoderLayout::activation_group(RowAddr a, RowAddr b) const {
  const auto da = digits(a);
  const auto db = digits(b);
  std::vector<RowAddr> rows{0};
  RowAddr stride = 1;
  for (std::size_t i = 0; i < fanouts_.size(); ++i) {
    if (da[i] == db[i]) {
      for (auto& r : rows) r += da[i] * stride;
    } else {
      std::vector<RowAddr> doubled;
      doubled.reserve(rows.size() * 2);
      for (RowAddr r : rows) {
        doubled.push_back(r + da[i] * stride);
        doubled.push_back(r + db[i] * stride);
      }
      rows = std::move(doubled);
    }
    stride *= fanouts_[i];
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

RowAddr PredecoderLayout::partner_for_group_size(RowAddr first,
                                                 std::size_t group_size) const {
  if (group_size == 0 || !std::has_single_bit(group_size))
    throw std::invalid_argument("group size must be a power of two");
  const auto k = static_cast<unsigned>(std::countr_zero(group_size));
  if (k > fanouts_.size())
    throw std::invalid_argument("group size exceeds 2^pre-decoder count");
  auto d = digits(first);
  for (unsigned i = 0; i < k; ++i) d[i] = (d[i] + 1) % fanouts_[i];
  return compose(d);
}

DecoderLatches::DecoderLatches(const PredecoderLayout* layout)
    : layout_(layout), latched_(layout->field_count(), 0) {}

void DecoderLatches::latch(RowAddr local_row) {
  if (local_row >= layout_->rows())
    throw std::out_of_range("local row out of range");
  for (std::size_t i = 0; i < latched_.size(); ++i) {
    const unsigned f = layout_->fanout(i);
    latched_[i] |= 1u << (local_row % f);
    local_row /= f;
  }
}

void DecoderLatches::clear() {
  std::fill(latched_.begin(), latched_.end(), 0u);
}

bool DecoderLatches::any_latched() const noexcept {
  return std::any_of(latched_.begin(), latched_.end(),
                     [](std::uint32_t m) { return m != 0; });
}

std::size_t DecoderLatches::asserted_count() const noexcept {
  if (!any_latched()) return 0;
  std::size_t n = 1;
  for (std::uint32_t m : latched_) n *= static_cast<std::size_t>(std::popcount(m));
  return n;
}

std::vector<RowAddr> DecoderLatches::asserted_rows() const {
  std::vector<RowAddr> rows;
  asserted_rows(rows);
  return rows;
}

void DecoderLatches::asserted_rows(std::vector<RowAddr>& rows) const {
  rows.clear();
  if (!any_latched()) return;
  rows.push_back(0);
  RowAddr stride = 1;
  for (std::size_t i = 0; i < latched_.size(); ++i) {
    const std::uint32_t outs = latched_[i];
    if (outs == 0) {
      rows.clear();
      return;
    }
    // The lowest latched output shifts the rows so far in place; each
    // other one appends a shifted copy of them.
    const auto first = static_cast<RowAddr>(std::countr_zero(outs));
    const std::size_t n = rows.size();
    for (std::size_t k = 0; k < n; ++k) rows[k] += first * stride;
    for (std::uint32_t rest = outs & (outs - 1); rest != 0;
         rest &= rest - 1) {
      const auto out = static_cast<RowAddr>(std::countr_zero(rest));
      for (std::size_t k = 0; k < n; ++k)
        rows.push_back(rows[k] + (out - first) * stride);
    }
    stride *= layout_->fanout(i);
  }
  std::sort(rows.begin(), rows.end());
}

}  // namespace simra::dram
