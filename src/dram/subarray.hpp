#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "dram/predecoder.hpp"
#include "dram/types.hpp"

namespace simra::dram {

/// Charge state of a DRAM row.
enum class RowState : std::uint8_t {
  kValid,  ///< cells hold full-rail values (the row's BitVec).
  kFrac,   ///< cells hold ~VDD/2 (a Frac operation destroyed the data).
};

/// Cell storage of one subarray: a grid of `layout.rows() x columns` cells
/// and each row's charge state. The local-decoder latches live in the
/// bank's BankStepper, since at most one subarray per bank is latched.
class Subarray {
 public:
  Subarray(const PredecoderLayout* layout, std::size_t columns);

  std::size_t rows() const noexcept { return layout_->rows(); }
  std::size_t columns() const noexcept { return columns_; }
  const PredecoderLayout& layout() const noexcept { return *layout_; }

  BitVec& row_data(RowAddr local_row);
  const BitVec& row_data(RowAddr local_row) const;
  RowState row_state(RowAddr local_row) const;
  void set_row_state(RowAddr local_row, RowState state);

 private:
  const PredecoderLayout* layout_;
  std::size_t columns_;
  std::vector<BitVec> data_;
  std::vector<RowState> states_;
};

}  // namespace simra::dram
