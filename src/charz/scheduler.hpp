#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace simra::charz {

/// Work-stealing task pool for the instance sweep.
///
/// Layout: one LIFO deque per worker. A task spawned from a worker thread
/// is pushed to that worker's own deque (children run hot, right after
/// their parent); an idle worker first pops its own deque from the back
/// (LIFO), then steals from the *front* of a uniformly random victim's
/// deque (FIFO — stolen work is the oldest, coarsest task). The
/// constructing thread is worker 0 and participates in execution whenever
/// it waits on a Group, so a pool of N workers spawns only N - 1 threads.
///
/// Idle threads never poll. `spawn()` and every group's last completion
/// bump a work epoch under `idle_mutex_`; an idle helper snapshots the
/// epoch, scans the deques, and sleeps until the epoch moves (or
/// shutdown). A Group waiter with nothing to run sleeps the same way
/// after checking its pending count. A waiter that is not one of the
/// pool's workers (say, a service's scheduler thread) steals instead of
/// popping a deque of its own. No wait has a timeout: the protocol, not
/// a doze, guarantees progress.
///
/// Scheduling is intentionally free to interleave tasks any way the
/// steals fall: every task the harness submits derives its seeds and
/// output slot purely from plan coordinates, so results are byte-identical
/// no matter which worker ran what when. The only scheduling-dependent
/// outputs are the pool's own stats (steals, per-worker task counts),
/// which go to the metrics registry — never into the byte-compared
/// trace/event artifacts.
///
/// A pool of `workers <= 1` never enqueues: `Group::spawn` runs the task
/// inline on the calling thread, preserving exact serial spawn order with
/// zero queueing overhead.
class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  explicit WorkStealingPool(unsigned workers);
  ~WorkStealingPool();
  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  unsigned workers() const noexcept {
    return static_cast<unsigned>(states_.size());
  }

  /// A joinable set of spawned tasks. Groups nest: a task may construct a
  /// Group on the same pool and spawn subtasks (fork-join); its `wait()`
  /// executes pending pool tasks — its own children first (LIFO), then
  /// steals — so waiting never deadlocks and never idles a worker while
  /// runnable work exists; with nothing runnable it sleeps until a spawn
  /// or its last task's completion. Tasks must not let exceptions escape
  /// if the spawner needs per-task failure attribution; as a backstop, the
  /// first escaped exception is captured and rethrown from `wait()`.
  class Group {
   public:
    explicit Group(WorkStealingPool& pool) : pool_(pool) {}
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;
    /// Blocks until every spawned task finished (executing tasks itself
    /// while it waits), then rethrows the first captured task exception.
    ~Group() noexcept(false) { wait(); }

    void spawn(Task task) { pool_.spawn(*this, std::move(task)); }
    void wait();

   private:
    friend class WorkStealingPool;
    WorkStealingPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex error_mutex_;
    std::exception_ptr first_error_;
  };

  /// Scheduler counters accumulated since construction. Every executed
  /// task is in `tasks_per_worker` or, when a waiting thread that is not
  /// a pool worker stole it, in `outside` (also counted in `steals`).
  struct Stats {
    std::uint64_t spawned = 0;
    std::uint64_t steals = 0;
    std::uint64_t outside = 0;
    std::vector<std::uint64_t> tasks_per_worker;
  };
  Stats stats() const;

  /// Publishes `stats()` into the obs metrics registry:
  /// `charz/steals` and `charz/tasks_spawned` counters plus the
  /// `charz/worker_tasks` per-worker load histogram. Scheduling-dependent
  /// by nature, so these surface only through metrics — never through the
  /// deterministic trace/event artifacts.
  void publish_stats() const;

 private:
  struct Entry {
    Task task;
    Group* group = nullptr;
  };

  struct WorkerState {
    mutable std::mutex mutex;
    std::deque<Entry> deque;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::uint64_t steal_state = 0;  ///< per-worker victim-choice stream
                                    ///< (owner-thread only).
  };

  // `self` is the calling thread's WorkerState, or null for a thread that
  // is not one of this pool's workers (it only steals).
  void spawn(Group& group, Task task);
  void run_entry(Entry entry, WorkerState* self, bool stolen);
  bool try_run_one(WorkerState* self);
  bool pop_own(WorkerState& self, Entry& out);
  bool steal(WorkerState* thief, Entry& out);
  void worker_loop(std::size_t index);
  /// Moves the epoch under `idle_mutex_` and wakes one sleeper (a spawn)
  /// or all of them (a group's last completion, whose waiter must wake).
  void advance_epoch(bool wake_all);
  /// Sleeps until the epoch moves past `seen` or shutdown.
  void park(std::uint64_t seen);

  std::vector<std::unique_ptr<WorkerState>> states_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> outside_runs_{0};
  std::atomic<bool> shutdown_{false};
  /// Counts what a sleeping thread may wait for: spawns and the last
  /// completion of each group. Written only under `idle_mutex_`; read
  /// without it for the snapshot a thread takes before it scans the
  /// deques (and, for a Group waiter, checks its pending count).
  std::atomic<std::uint64_t> epoch_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  /// The constructing thread's binding before it became worker 0; the
  /// destructor restores it. Pools built on one thread therefore nest
  /// like a stack: destroy them in reverse order of construction.
  WorkStealingPool* outer_pool_ = nullptr;
  std::size_t outer_index_ = 0;
};

}  // namespace simra::charz
