#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "charz/coverage.hpp"
#include "charz/plan.hpp"
#include "charz/scheduler.hpp"
#include "fault/attempts.hpp"

namespace simra::charz {

/// Worker count the harness fans instance sweeps across: `SIMRA_THREADS`
/// when set to a positive integer; unset / zero / negative means
/// auto-detect from `hardware_concurrency` (floor 2, so the pool is
/// exercised even where detection reports 0 or 1). 1 means exact serial
/// execution on the calling thread (no queueing).
unsigned harness_threads();

/// A sweep's aggregate plus the resilience accounting that produced it.
/// With no faults injected and no failures, `coverage.complete()` holds
/// and `result` is byte-identical to the pre-resilience harness.
template <typename Acc>
struct Sweep {
  Acc result;
  Coverage coverage;
};

namespace detail {

/// One resilience unit of work: a fully independent chip. The chip's
/// Chip / Engine / Rng are seeded purely from (plan.seed, module_index,
/// chip_index), so a task produces the same instances no matter which
/// thread runs it, or when. For scheduling, a chip task fans out further
/// into per-sweep-point *slot* subtasks (one per sampled
/// (bank, subarray)); retry and quarantine stay at the chip aggregate.
struct ChipTask {
  const Plan::ModuleSpec* spec = nullptr;
  std::uint64_t module_index = 0;
  std::size_t chip_index = 0;
};

/// The plan's chip tasks in deterministic (module, chip) order — the
/// order the serial walk visits them and the order partial results are
/// merged in.
std::vector<ChipTask> chip_tasks(const Plan& plan);

/// Slots (independently schedulable sweep points) per chip:
/// banks_per_chip * subarrays_per_bank. Slot `i` covers bank
/// i / subarrays_per_bank and one sampled subarray of it.
std::size_t slots_per_chip(const Plan& plan);

/// Instantiates one slot's Chip / Engine / Rng and invokes
/// `fn(instance, slot)` for its single sampled (bank, subarray). All
/// seeds derive from (plan.seed, module_index, chip_index, slot) — never
/// from scheduling — so slots may run in any order, on any worker, and
/// still produce identical samples. The slot's Chip owns its electrical
/// memos outright: sibling slots (and retry attempts) share nothing but
/// the chip seed, since a slot's spans and masks are keyed by its own
/// (bank, subarray) and a chip-level memo would almost never hit.
void run_slot_task(const Plan& plan, const ChipTask& task, std::size_t slot,
                   fault::ChipInjector* injector,
                   const std::function<void(Instance&, std::size_t)>& fn);

/// Instantiates one chip task and invokes `fn` for each of its
/// (bank, subarray) instances, serially in slot order — the serial-walk
/// reference the parallel decomposition must match bit for bit.
void run_chip_task(const Plan& plan, const ChipTask& task,
                   const std::function<void(Instance&)>& fn);

/// Runs fn(0 .. n_tasks-1) on `pool`. `fn` must only touch state owned by
/// its task index. Failures are collected across all tasks (no early
/// abort); afterwards every failure is emitted as a structured
/// "worker.failure" event in task order, a lone failure is rethrown
/// as-is, and multiple failures raise one std::runtime_error enumerating
/// up to the first four messages plus the total count.
void dispatch_tasks(WorkStealingPool& pool, std::size_t n_tasks,
                    const std::function<void(std::size_t)>& fn);

/// Convenience overload constructing a throwaway pool of up to `threads`
/// workers (kept for callers and tests that don't nest subtasks).
void dispatch_tasks(std::size_t n_tasks, unsigned threads,
                    const std::function<void(std::size_t)>& fn);

/// Worker count for a sweep with `total_subtasks` schedulable slots:
/// harness_threads() capped to the available parallelism.
unsigned pool_workers(std::size_t total_subtasks);

/// Surfaces the resolved worker count: `charz/workers` gauge plus the
/// manifest's host section ("workers"). Host-only on the manifest side so
/// the byte-compared artifacts stay thread-count-invariant.
void register_workers(const WorkStealingPool& pool);

/// Surfaces the process-wide SpanPool recycle statistics after a sweep:
/// `charz/span_pool_recycle_rate` gauge plus host manifest fields
/// ("span_pool_hits" / "span_pool_misses" / "span_pool_recycle_rate").
/// Host-only — the hit pattern depends on allocation interleaving, so it
/// must never leak into byte-compared artifacts.
void register_span_pool_stats();

/// Runs one chip task under `fault::run_attempts` (keyed (module, chip),
/// crash ordinal `task_ordinal`), fanning its slots out as subtasks on
/// `pool` (nested fork-join: the calling worker executes slot subtasks
/// while it waits). Chip-level fault decisions (task crash, delay) are
/// drawn before the fan-out from the attempt's chip injector so they are
/// unchanged by the decomposition; each slot gets its own injector keyed
/// by (…, attempt, slot + 1). Bounded retry with exponential backoff
/// stays at the chip aggregate: any failed slot fails the attempt (lowest
/// slot's error wins, deterministically), `reset` must discard the
/// partial accumulator state of every slot, and a chip that exhausts its
/// retries is quarantined whole. Per-slot observability buffers are
/// folded into the chip's buffer in slot order on a virtual timeline, so
/// trace/event artifacts stay byte-identical at any worker count. Never
/// throws.
ChipReport run_chip_task_resilient(
    const Plan& plan, const ChipTask& task, std::size_t task_ordinal,
    const fault::Resilience& res, WorkStealingPool& pool,
    const std::function<void(Instance&, std::size_t)>& fn,
    const std::function<void()>& reset);

/// Builds the sweep's Coverage from the per-task reports and enforces the
/// quarantine budget: throws HarnessError when more chips failed than
/// `spec.effective_quarantine_budget()` allows. Also publishes the
/// resilience prof counters.
Coverage collect_coverage(std::vector<ChipReport> reports,
                          const fault::Resilience& res);

}  // namespace detail

/// Parallel instance sweep with deterministic aggregation and graceful
/// degradation.
///
/// Decomposes the plan into (module, chip, sweep-point) slot subtasks and
/// fans them across a work-stealing pool of `harness_threads()` workers:
/// chip tasks are spawned first, and each chip task forks one subtask per
/// sampled (bank, subarray), so the scheduler can keep every worker busy
/// even when chips are few or unevenly expensive. Each slot accumulates
/// into its own default-constructed `Acc`; once all tasks finish, the
/// slot accumulators of *successful* chips are merged in (module, chip,
/// slot) order. Because every slot's seeds derive from plan coordinates
/// alone, the result is bit-identical for every thread count — including
/// the single-threaded serial walk.
///
/// A failing chip task is retried up to `retry.max` times (fresh
/// accumulators each attempt); chips that exhaust their retries are
/// quarantined atomically — all slots excluded from the merge and the
/// chip reported in the returned `Sweep::coverage` — unless the
/// quarantine budget is exceeded, in which case a HarnessError (carrying
/// the coverage) aborts the sweep.
///
/// `Acc` must be default-constructible and provide `merge(const Acc&)`
/// appending the other accumulator's samples in order (SeriesAccumulator,
/// SampleSet, RunningStats, DisturbanceResult).
template <typename Acc, typename Fn>
Sweep<Acc> run_instances(const Plan& plan, Fn&& fn) {
  const std::vector<detail::ChipTask> tasks = detail::chip_tasks(plan);
  // SIMRA_FAULT_SPEC + SIMRA_FAULT_SEED, read once per sweep.
  const fault::Resilience res = fault::Resilience::from_env();
  const std::size_t slots = detail::slots_per_chip(plan);
  std::vector<Acc> partials(tasks.size() * slots);
  std::vector<ChipReport> reports(tasks.size());
  {
    WorkStealingPool pool(detail::pool_workers(tasks.size() * slots));
    detail::register_workers(pool);
    detail::dispatch_tasks(pool, tasks.size(), [&](std::size_t i) {
      reports[i] = detail::run_chip_task_resilient(
          plan, tasks[i], i, res, pool,
          [&](Instance& inst, std::size_t slot) {
            fn(inst, partials[i * slots + slot]);
          },
          [&] {
            for (std::size_t s = 0; s < slots; ++s)
              partials[i * slots + s] = Acc();
          });
    });
    pool.publish_stats();
    detail::register_span_pool_stats();
  }
  Sweep<Acc> sweep;
  sweep.coverage = detail::collect_coverage(std::move(reports), res);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (sweep.coverage.chips[i].succeeded)
      for (std::size_t s = 0; s < slots; ++s)
        sweep.result.merge(partials[i * slots + s]);
  return sweep;
}

}  // namespace simra::charz
