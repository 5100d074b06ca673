#include "charz/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace simra::charz {

namespace {

/// The worker identity of the current thread, if it belongs to a pool.
/// Pools nest like a stack (a worker of an outer pool may construct an
/// inner one and becomes its worker 0), so registration saves and
/// restores the previous binding: in the pool constructor/destructor for
/// worker 0, in ScopedWorkerBinding for the helper threads.
struct WorkerBinding {
  WorkStealingPool* pool = nullptr;
  std::size_t index = 0;
};

thread_local WorkerBinding tl_worker;

class ScopedWorkerBinding {
 public:
  ScopedWorkerBinding(WorkStealingPool* pool, std::size_t index) noexcept
      : previous_(tl_worker) {
    tl_worker = {pool, index};
  }
  ~ScopedWorkerBinding() { tl_worker = previous_; }
  ScopedWorkerBinding(const ScopedWorkerBinding&) = delete;
  ScopedWorkerBinding& operator=(const ScopedWorkerBinding&) = delete;

 private:
  WorkerBinding previous_;
};

}  // namespace

WorkStealingPool::WorkStealingPool(unsigned workers) {
  const unsigned n = std::max(1u, workers);
  states_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto state = std::make_unique<WorkerState>();
    // Distinct per-worker victim-choice streams; any fixed seeding works,
    // since steal order never affects results.
    state->steal_state = 0x5727'1e6d'0000'0000ULL + i;
    states_.push_back(std::move(state));
  }
  // The constructing thread is worker 0 for the pool's whole lifetime
  // (it executes tasks whenever it waits on a Group).
  outer_pool_ = tl_worker.pool;
  outer_index_ = tl_worker.index;
  tl_worker = {this, 0};
  threads_.reserve(n - 1);
  for (unsigned i = 1; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

WorkStealingPool::~WorkStealingPool() {
  {
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    shutdown_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  if (tl_worker.pool == this) tl_worker = {outer_pool_, outer_index_};
}

void WorkStealingPool::spawn(Group& group, Task task) {
  spawned_.fetch_add(1, std::memory_order_relaxed);
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  if (workers() <= 1) {
    // Serial pool: run inline at spawn, preserving exact FIFO spawn order
    // with no queueing. Children spawned by `task` recurse here too.
    run_entry(Entry{std::move(task), &group}, states_[0].get(),
              /*stolen=*/false);
    return;
  }
  const std::size_t target =
      tl_worker.pool == this ? tl_worker.index : std::size_t{0};
  {
    const std::lock_guard<std::mutex> lock(states_[target]->mutex);
    states_[target]->deque.push_back(Entry{std::move(task), &group});
  }
  // After the push, so an idle thread whose scan missed the entry finds
  // the epoch moved before it sleeps. One task needs one thread.
  advance_epoch(/*wake_all=*/false);
}

void WorkStealingPool::advance_epoch(bool wake_all) {
  {
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  if (wake_all)
    idle_cv_.notify_all();
  else
    idle_cv_.notify_one();
}

void WorkStealingPool::run_entry(Entry entry, WorkerState* self,
                                 bool stolen) {
  Group& group = *entry.group;
  try {
    entry.task();
  } catch (...) {
    const std::lock_guard<std::mutex> lock(group.error_mutex_);
    if (!group.first_error_) group.first_error_ = std::current_exception();
  }
  // Destroy the task's captures now: once pending reaches zero below,
  // the waiter may free what they refer to.
  entry.task = nullptr;
  if (self != nullptr) {
    self->executed.fetch_add(1, std::memory_order_relaxed);
    if (stolen) self->steals.fetch_add(1, std::memory_order_relaxed);
  } else {
    outside_runs_.fetch_add(1, std::memory_order_relaxed);
  }
  // The group's last task wakes its waiter, whichever thread that is.
  // The waiter may destroy the group as soon as it sees zero pending, so
  // the wake touches only pool-owned state.
  if (group.pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    advance_epoch(/*wake_all=*/true);
}

bool WorkStealingPool::pop_own(WorkerState& self, Entry& out) {
  const std::lock_guard<std::mutex> lock(self.mutex);
  if (self.deque.empty()) return false;
  out = std::move(self.deque.back());
  self.deque.pop_back();
  return true;
}

bool WorkStealingPool::steal(WorkerState* thief, Entry& out) {
  const std::size_t n = states_.size();
  if (n <= 1) return false;
  // Workers probe from a random victim. An outside thread probes from
  // deque 0, where every spawn from outside the pool lands.
  const std::size_t start =
      thief != nullptr
          ? static_cast<std::size_t>(splitmix64(thief->steal_state) % n)
          : 0;
  for (std::size_t probe = 0; probe < n; ++probe) {
    WorkerState& victim = *states_[(start + probe) % n];
    if (&victim == thief) continue;
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.deque.empty()) continue;
    out = std::move(victim.deque.front());
    victim.deque.pop_front();
    return true;
  }
  return false;
}

bool WorkStealingPool::try_run_one(WorkerState* self) {
  Entry entry;
  if (self != nullptr && pop_own(*self, entry)) {
    run_entry(std::move(entry), self, /*stolen=*/false);
    return true;
  }
  if (steal(self, entry)) {
    run_entry(std::move(entry), self, /*stolen=*/true);
    return true;
  }
  return false;
}

void WorkStealingPool::park(std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this, seen] {
    return epoch_.load(std::memory_order_relaxed) != seen ||
           shutdown_.load(std::memory_order_relaxed);
  });
}

void WorkStealingPool::worker_loop(std::size_t index) {
  const ScopedWorkerBinding binding(this, index);
  WorkerState* self = states_[index].get();
  while (!shutdown_.load(std::memory_order_acquire)) {
    // Snapshot before the scan: a spawn the scan misses moves the epoch.
    const std::uint64_t seen = epoch_.load(std::memory_order_acquire);
    if (try_run_one(self)) continue;
    park(seen);
  }
}

void WorkStealingPool::Group::wait() {
  WorkerState* self = tl_worker.pool == &pool_
                          ? pool_.states_[tl_worker.index].get()
                          : nullptr;
  for (;;) {
    // Snapshot before the pending check and the scan: a completion or a
    // spawn after it moves the epoch, so the park below cannot miss it.
    const std::uint64_t seen = pool_.epoch_.load(std::memory_order_acquire);
    if (pending_.load(std::memory_order_acquire) == 0) break;
    // Work while waiting: our own children first (LIFO), then anything
    // stealable — the group's stragglers are likely being executed by
    // other workers, and helping them drain is faster than idling.
    if (pool_.try_run_one(self)) continue;
    pool_.park(seen);
  }
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats s;
  s.spawned = spawned_.load(std::memory_order_relaxed);
  s.outside = outside_runs_.load(std::memory_order_relaxed);
  s.steals = s.outside;
  s.tasks_per_worker.reserve(states_.size());
  for (const auto& state : states_) {
    s.tasks_per_worker.push_back(
        state->executed.load(std::memory_order_relaxed));
    s.steals += state->steals.load(std::memory_order_relaxed);
  }
  return s;
}

void WorkStealingPool::publish_stats() const {
  const Stats s = stats();
  obs::MetricsRegistry::instance()
      .counter("charz/steals")
      .add_count(s.steals);
  obs::MetricsRegistry::instance()
      .counter("charz/tasks_spawned")
      .add_count(s.spawned);
  static obs::Histogram& load_hist =
      obs::MetricsRegistry::instance().histogram(
          "charz/worker_tasks", {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  for (const std::uint64_t executed : s.tasks_per_worker)
    load_hist.observe(static_cast<double>(executed));
}

}  // namespace simra::charz
