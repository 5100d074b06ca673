#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "charz/scheduler.hpp"
#include "fault/attempts.hpp"
#include "serve/admission.hpp"
#include "serve/queue.hpp"
#include "serve/shard.hpp"

namespace simra::serve {

/// Service construction knobs; `from_env()` reads the `SIMRA_SERVE_*`
/// surface documented in the README.
struct ServiceConfig {
  std::size_t shards = 4;          ///< chip instances in the fleet.
  std::size_t max_batch = 32;      ///< requests fused per program.
  std::size_t queue_capacity = 1024;
  std::size_t max_in_flight = 2048;  ///< global admission cap.
  std::size_t tenant_quota = 512;    ///< per-tenant in-flight cap.
  std::size_t group_size = 4;        ///< activation-group rows.
  bool steer_groups = true;          ///< reliability-map group selection.
  unsigned max_reroutes = 2;  ///< cross-shard retries after quarantine.
  std::uint64_t seed = 0x5e12;
  /// Fleet profiles, cycled across shards. Must share one geometry (row
  /// width); defaults to the quick plan's x8 census (Mfr. H M-/A-die).
  std::vector<dram::VendorProfile> profiles;

  static ServiceConfig from_env();
};

/// Aggregate accounting, in the spirit of `charz::Coverage`: every
/// admitted request is delivered exactly once, so
/// `ok + expired + failed + rejected_invalid == admitted` once drained.
/// Submit-side counters are atomics (clients race); the rest are written
/// only by the scheduler.
struct ServeStats {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_quota{0};
  std::uint64_t rejected_invalid = 0;
  std::uint64_t ok = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_miss = 0;  ///< ok deliveries past their deadline.
  std::uint64_t rerouted = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_attempts = 0;
  std::uint64_t fused_requests = 0;
  std::uint64_t fault_events = 0;
  std::size_t quarantined_shards = 0;
  bool over_quarantine_budget = false;

  std::uint64_t delivered() const noexcept {
    return ok + expired + failed + rejected_invalid;
  }
  /// "served 9/10 shards healthy, 9990 ok, ..." one-liner.
  std::string summary(std::size_t total_shards) const;
};

/// The PUD serving front-end: clients submit requests into a lock-free
/// queue; the scheduler groups compatible requests per shard, compiles
/// each group into one fused `bender::Program`, and dispatches the shard
/// batches across a `charz::WorkStealingPool`. Each batch runs under
/// `fault::run_attempts`, the attempt loop the harness's chip tasks share
/// (bounded retries with exponential backoff); a shard whose batch
/// exhausts them is quarantined and the batch's requests are rerouted to
/// healthy shards a bounded number of times, so no admitted request is
/// ever lost or answered twice.
///
/// Determinism: with a fixed workload submitted from one thread and
/// pumped with `pump()`/`drain()`, batch composition, shard routing, and
/// all obs artifacts are pure functions of the submission order — worker
/// count only changes which thread executes a shard's batches. `start()`
/// runs the same pump loop on a background thread for asynchronous
/// closed-loop clients (bench_serve); that thread parks while there is
/// nothing to do and a submit wakes it.
class Service {
 public:
  explicit Service(ServiceConfig config = ServiceConfig::from_env());
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits one request. On admission failure the ticket is delivered
  /// immediately with kRejected and false is returned. Thread-safe.
  bool submit(Request request, Ticket* ticket);

  /// One scheduler round: drain the queue, expire, batch, dispatch,
  /// deliver. The calling thread executes one busy shard's batches itself
  /// and the pool runs the other busy shards. Returns the number of
  /// responses delivered. If a shard throws, every spawned shard is
  /// joined, the round's requests are answered kFailed with the error's
  /// text, and the exception propagates. Not thread-safe against itself
  /// or start().
  std::size_t pump();

  /// Pumps until no queued, backlogged, or in-flight work remains.
  void drain();

  /// Background scheduler loop for asynchronous clients. It pumps while
  /// rounds deliver or reroutes wait, and otherwise parks until a submit
  /// or stop() wakes it. If pump() throws, the loop executes nothing more:
  /// it answers every waiting request, and each later submit, kFailed
  /// with the error's text until stop().
  void start();
  /// Wakes and joins the background scheduler after it answered every
  /// admitted request. Rethrows whatever stopped the loop early (an
  /// exception out of pump()).
  void stop();

  const ServiceConfig& config() const noexcept { return config_; }
  const ServeStats& stats() const noexcept { return stats_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t healthy_shards() const;
  Shard& shard(std::size_t index) { return *shards_[index]; }
  std::size_t queue_depth() const noexcept { return queue_.approx_size(); }
  const fault::Resilience& resilience() const noexcept { return res_; }

 private:
  void deliver(const BatchItem& item, Response response);
  /// Answers `item` kFailed with `error`, with its event and SLO record.
  void fail(const BatchItem& item, const std::string& error);
  void record_batch_metrics(const BatchOutcome& outcome, std::size_t size);
  /// The background scheduler after pump() threw: fails what waits and
  /// what arrives, parking in between, until stop().
  void fail_until_stopped(const std::string& error);
  /// Blocks the background scheduler until a submit or stop() wakes it.
  void park();
  void unpark();
  /// Stops and joins the background scheduler; returns what it threw.
  std::exception_ptr halt();

  ServiceConfig config_;
  fault::Resilience res_;
  SubmissionQueue queue_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<charz::WorkStealingPool> pool_;
  std::vector<BatchItem> backlog_;  ///< rerouted requests, scheduler-owned.
  std::vector<std::uint64_t> batch_seq_;  ///< per-shard batch counter.
  ServeStats stats_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> stop_{false};
  /// Set by the scheduler before it sleeps on it (`std::atomic::wait`).
  /// A submit reads it after its push (a seq_cst fence on each side) and
  /// clears it and notifies only when it is set, so submitting to a busy
  /// scheduler makes no syscall.
  std::atomic<bool> parked_{false};
  std::exception_ptr scheduler_error_;
  std::thread scheduler_;
};

}  // namespace simra::serve
