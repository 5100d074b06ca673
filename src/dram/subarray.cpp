#include "dram/subarray.hpp"

#include <stdexcept>

namespace simra::dram {

Subarray::Subarray(const PredecoderLayout* layout, std::size_t columns)
    : layout_(layout),
      columns_(columns),
      data_(layout->rows(), BitVec(columns)),
      states_(layout->rows(), RowState::kValid) {}

BitVec& Subarray::row_data(RowAddr local_row) {
  if (local_row >= rows()) throw std::out_of_range("row out of subarray range");
  return data_[local_row];
}

const BitVec& Subarray::row_data(RowAddr local_row) const {
  if (local_row >= rows()) throw std::out_of_range("row out of subarray range");
  return data_[local_row];
}

RowState Subarray::row_state(RowAddr local_row) const {
  if (local_row >= rows()) throw std::out_of_range("row out of subarray range");
  return states_[local_row];
}

void Subarray::set_row_state(RowAddr local_row, RowState state) {
  if (local_row >= rows()) throw std::out_of_range("row out of subarray range");
  states_[local_row] = state;
}

}  // namespace simra::dram
