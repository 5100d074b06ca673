#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "serve/request.hpp"

namespace simra::serve {

/// One queued unit: the request plus the client's completion slot.
struct Submission {
  Request request;
  Ticket* ticket = nullptr;
};

/// Bounded lock-free MPMC ring (Vyukov's bounded queue): each cell carries
/// a sequence number the producers/consumers race on with CAS, so any
/// number of client threads can push while the scheduler pops, with no
/// mutex on the submission path. Capacity is rounded up to a power of
/// two. Full is a normal outcome — the admission layer turns it into a
/// kRejected response, which is what bounds scheduler memory under
/// overload.
class SubmissionQueue {
 public:
  explicit SubmissionQueue(std::size_t capacity);

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  /// False when the ring is full (the submission is untouched).
  bool try_push(Submission&& submission);

  /// False when the ring is empty.
  bool try_pop(Submission& out);

  /// True when the next try_pop would fail: nothing is published at the
  /// head (a push that claimed the head but has not published it yet
  /// counts as empty). Consumer side only.
  bool empty() const noexcept;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Racy size estimate for the queue-depth gauge.
  std::size_t approx_size() const noexcept;

 private:
  struct Cell {
    std::atomic<std::uint64_t> sequence{0};
    Submission value;
  };

  std::unique_ptr<Cell[]> cells_;
  std::uint64_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace simra::serve
