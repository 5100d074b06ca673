#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "dram/types.hpp"

namespace simra::serve {

/// The PUD operations the service accepts (§3 of the paper, as served
/// primitives): bulk copy via consecutive activation, one-to-many copy /
/// initialization via simultaneous many-row activation, and MAJX compute.
enum class OpKind : std::uint8_t {
  kRowClone,      ///< copy src row -> dst row (optionally seeding src first).
  kMultiRowCopy,  ///< copy R_F to every row of the activation group.
  kBulkInit,      ///< write a pattern once, fan it out with one APA.
  kMajx,          ///< X-input in-DRAM majority; returns the row buffer.
};

const char* to_string(OpKind kind);

enum class Status : std::uint8_t {
  kOk,
  kRejected,  ///< refused at admission (queue full / tenant quota / invalid).
  kExpired,   ///< virtual deadline passed before the request was dispatched.
  kFailed,    ///< all shards that tried it exhausted their retries.
};

const char* to_string(Status status);

/// One client request. Rows are subarray-local; the service maps them into
/// the routed shard's reliability-steered activation group. `deadline_ns`
/// is a *virtual* deadline against the shard's executor clock (0 = none):
/// deadline-aware queueing orders runnable requests EDF and drops the ones
/// whose deadline already passed instead of wasting bank time on them.
struct Request {
  std::uint64_t id = 0;  ///< assigned by the service at submission.
  std::uint32_t tenant = 0;
  OpKind op = OpKind::kRowClone;
  dram::BankId bank = 0;
  dram::SubarrayId sa = 0;
  dram::RowAddr src = 0;  ///< kRowClone source row.
  dram::RowAddr dst = 1;  ///< kRowClone destination row.
  /// kMajx: the X operand rows (odd count >= 3). kBulkInit: the fill
  /// pattern. kRowClone / kMultiRowCopy: optional single element seeding
  /// the source row before the copy.
  std::vector<BitVec> operands;
  double deadline_ns = 0.0;
  bool read_back = false;  ///< return the destination row's content.
};

/// The service's answer. `virtual_ns` is the shard-clock timestamp at
/// which the request's fused batch finished — the deterministic latency
/// surface (wall-clock latency lives client-side, in bench_serve).
struct Response {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::string error;
  BitVec result;  ///< MAJX row buffer or the read-back row; else empty.
  std::uint32_t shard = 0;
  std::uint64_t batch = 0;
  unsigned attempts = 0;
  double virtual_ns = 0.0;
};

/// One-shot completion slot the client polls or blocks on. The service
/// delivers exactly once. `wait()` blocks on the ready flag
/// (`std::atomic::wait`), so a waiting client takes no CPU from the
/// service's threads; `deliver()` notifies, which libstdc++ turns into a
/// futex wake only when a waiter is registered, so a client that polls
/// `ready()` and calls `wait()` only once it is ready pays nothing. The
/// notify keys on the flag's address in libstdc++'s own waiter table and
/// does not touch the ticket, so a polling client may drop the ticket as
/// soon as `ready()` holds.
class Ticket {
 public:
  bool ready() const noexcept {
    return ready_.load(std::memory_order_acquire);
  }

  /// Blocks until delivery, then returns the response (moved out).
  Response wait() {
    ready_.wait(false, std::memory_order_acquire);
    return std::move(response_);
  }

  /// Called by the service, exactly once per admitted or rejected submit.
  void deliver(Response response) {
    response_ = std::move(response);
    ready_.store(true, std::memory_order_release);
    ready_.notify_one();
  }

 private:
  std::atomic<bool> ready_{false};
  Response response_;
};

}  // namespace simra::serve
