#include "serve/queue.hpp"

#include <bit>
#include <stdexcept>

namespace simra::serve {

SubmissionQueue::SubmissionQueue(std::size_t capacity) {
  if (capacity < 2) capacity = 2;
  capacity = std::bit_ceil(capacity);
  cells_ = std::make_unique<Cell[]>(capacity);
  mask_ = capacity - 1;
  for (std::uint64_t i = 0; i < capacity; ++i)
    cells_[i].sequence.store(i, std::memory_order_relaxed);
}

bool SubmissionQueue::try_push(Submission&& submission) {
  std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const auto diff =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (diff == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.value = std::move(submission);
        cell.sequence.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // the cell still holds an unconsumed lap: full.
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool SubmissionQueue::try_pop(Submission& out) {
  std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const auto diff = static_cast<std::int64_t>(seq) -
                      static_cast<std::int64_t>(pos + 1);
    if (diff == 0) {
      if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        out = std::move(cell.value);
        cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // nothing published at this position yet: empty.
    } else {
      pos = dequeue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool SubmissionQueue::empty() const noexcept {
  const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  return cells_[pos & mask_].sequence.load(std::memory_order_acquire) !=
         pos + 1;
}

std::size_t SubmissionQueue::approx_size() const noexcept {
  const std::uint64_t tail = enqueue_pos_.load(std::memory_order_relaxed);
  const std::uint64_t head = dequeue_pos_.load(std::memory_order_relaxed);
  return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
}

}  // namespace simra::serve
