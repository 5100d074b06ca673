// Unit tests for the work-stealing pool: exactly-once execution, nested
// fork-join, exception capture, the serial fallback, nested pools, and
// the wake protocol under a thread that is not one of the pool's workers.
// Every case runs under a short ctest timeout, because a lost wake-up
// hangs instead of failing.

#include "charz/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace simra::charz {
namespace {

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce) {
  WorkStealingPool pool(4);
  std::atomic<int> ran{0};
  {
    WorkStealingPool::Group group(pool);
    for (int i = 0; i < 1000; ++i)
      group.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
  }
  EXPECT_EQ(ran.load(), 1000);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.spawned, 1000u);
  std::uint64_t executed = 0;
  for (const std::uint64_t n : stats.tasks_per_worker) executed += n;
  EXPECT_EQ(executed, 1000u);
}

TEST(WorkStealingPool, NestedGroupsForkJoinWithoutDeadlock) {
  // Mirrors the harness shape: an outer chip-task group whose tasks each
  // open an inner slot group on the same pool and join it.
  WorkStealingPool pool(3);
  std::atomic<int> leaves{0};
  WorkStealingPool::Group outer(pool);
  for (int i = 0; i < 8; ++i) {
    outer.spawn([&pool, &leaves] {
      WorkStealingPool::Group inner(pool);
      for (int j = 0; j < 16; ++j)
        inner.spawn(
            [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 8 * 16);
}

TEST(WorkStealingPool, FirstTaskExceptionRethrownFromWait) {
  WorkStealingPool pool(2);
  WorkStealingPool::Group group(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    group.spawn([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 7) throw std::runtime_error("slot 7 failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 32) << "an escaped exception must not cancel peers";
}

TEST(WorkStealingPool, SingleWorkerRunsInlineInSpawnOrder) {
  WorkStealingPool pool(1);
  std::vector<int> order;
  WorkStealingPool::Group group(pool);
  for (int i = 0; i < 6; ++i)
    group.spawn([&order, i] { order.push_back(i); });
  group.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(pool.stats().steals, 0u);
}

TEST(WorkStealingPool, ZeroWorkersClampsToOne) {
  WorkStealingPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
}

TEST(WorkStealingPool, InnerPoolRestoresTheHelpersOuterBinding) {
  // A task on the outer pool's helper builds and drops a pool of its own,
  // then forks children on the outer pool. Dropping the inner pool must
  // hand the helper its outer binding back: its children go to its own
  // deque and it pops them itself. (Left unbound, its spawns land in
  // deque 0 and it can only steal them back.)
  WorkStealingPool outer(2);
  constexpr int kChildren = 64;
  std::atomic<bool> done{false};
  std::atomic<int> ran_on_parent_thread{0};
  WorkStealingPool::Group group(outer);
  group.spawn([&] {
    { WorkStealingPool inner(2); }
    const std::thread::id parent = std::this_thread::get_id();
    WorkStealingPool::Group children(outer);
    for (int i = 0; i < kChildren; ++i)
      children.spawn([&ran_on_parent_thread, parent] {
        if (std::this_thread::get_id() == parent)
          ran_on_parent_thread.fetch_add(1, std::memory_order_relaxed);
      });
    children.wait();
    done.store(true, std::memory_order_release);
    done.notify_one();
  });
  // Block without helping, so only the helper can run the children.
  done.wait(false, std::memory_order_acquire);
  group.wait();
  EXPECT_EQ(ran_on_parent_thread.load(), kChildren);
  const WorkStealingPool::Stats stats = outer.stats();
  EXPECT_EQ(stats.steals, 1u) << "only the parent task should be stolen";
  EXPECT_EQ(stats.tasks_per_worker[1], std::uint64_t{kChildren} + 1);
}

TEST(WorkStealingPool, OutsideThreadJoinsThousandsOfSingleTaskGroups) {
  // A thread that is not a worker (a service's scheduler thread) forks
  // and joins one task at a time while the helpers park in between: each
  // join either steals the task or sleeps until the completion wake, and
  // each group dies right after its join. A lost wake-up hangs here.
  WorkStealingPool pool(3);
  constexpr int kGroups = 5000;
  std::atomic<int> ran{0};
  int joined = 0;
  std::thread outsider([&] {
    for (int i = 0; i < kGroups; ++i) {
      WorkStealingPool::Group group(pool);
      group.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      group.wait();
      if (ran.load(std::memory_order_relaxed) == i + 1) ++joined;
    }
  });
  outsider.join();
  EXPECT_EQ(joined, kGroups) << "a wait returned before its task finished";
  const WorkStealingPool::Stats stats = pool.stats();
  std::uint64_t executed = stats.outside;
  for (const std::uint64_t n : stats.tasks_per_worker) executed += n;
  EXPECT_EQ(stats.spawned, std::uint64_t{kGroups});
  EXPECT_EQ(executed, std::uint64_t{kGroups});
}

}  // namespace
}  // namespace simra::charz
