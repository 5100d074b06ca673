#include "charz/runner.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "dram/chip.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace simra::charz {

unsigned harness_threads() {
  const std::int64_t configured = env_int("SIMRA_THREADS", 0);
  if (configured > 0) return static_cast<unsigned>(configured);
  // Auto mode: all detected cores, floor 2 so the pool (and its
  // determinism contract) is exercised even where detection fails.
  return std::max(std::thread::hardware_concurrency(), 2u);
}

namespace detail {

std::vector<ChipTask> chip_tasks(const Plan& plan) {
  std::vector<ChipTask> tasks;
  std::uint64_t module_index = 0;
  for (const Plan::ModuleSpec& spec : plan.modules)
    for (std::size_t m = 0; m < spec.count; ++m, ++module_index)
      for (std::size_t c = 0; c < plan.chips_per_module; ++c)
        tasks.push_back({&spec, module_index, c});
  return tasks;
}

std::size_t slots_per_chip(const Plan& plan) {
  return plan.banks_per_chip * plan.subarrays_per_bank;
}

void run_slot_task(const Plan& plan, const ChipTask& task, std::size_t slot,
                   fault::ChipInjector* injector,
                   const std::function<void(Instance&, std::size_t)>& fn) {
  const Plan::ModuleSpec& spec = *task.spec;
  // Seeds depend only on (plan.seed, module_index, chip_index, slot),
  // never on scheduling, so any interleaving of slots across workers
  // yields the same instances. The chip seed is shared by all slots (one
  // physical chip, one variation field); the instance stream is per-slot.
  dram::Chip chip(spec.profile, hash_combine(plan.seed, (task.module_index << 8) |
                                                            task.chip_index));
  pud::Engine engine(&chip);
  if (injector != nullptr) {
    chip.install_faults(injector);
    engine.executor().install_faults(injector);
  }
  Rng rng(hash_combine(hash_combine(plan.seed, (task.module_index << 16) |
                                                   (task.chip_index << 8) | 1),
                       slot));
  const std::size_t bank = slot / plan.subarrays_per_bank;
  // Sample a subarray uniformly (avoiding duplicates is not required by
  // the methodology).
  const auto sa = static_cast<dram::SubarrayId>(
      rng.below(chip.profile().geometry.subarrays_per_bank()));
  Instance instance{engine,
                    static_cast<dram::BankId>(bank),
                    sa,
                    chip.profile(),
                    rng,
                    static_cast<double>(spec.count) /
                        static_cast<double>(plan.chips_per_module),
                    task.module_index,
                    task.chip_index};
  fn(instance, slot);
}

void run_chip_task(const Plan& plan, const ChipTask& task,
                   const std::function<void(Instance&)>& fn) {
  const std::size_t slots = slots_per_chip(plan);
  const std::function<void(Instance&, std::size_t)> slot_fn =
      [&fn](Instance& inst, std::size_t) { fn(inst); };
  for (std::size_t slot = 0; slot < slots; ++slot)
    run_slot_task(plan, task, slot, nullptr, slot_fn);
}

unsigned pool_workers(std::size_t total_subtasks) {
  const std::size_t cap = std::max<std::size_t>(total_subtasks, 1);
  return static_cast<unsigned>(
      std::min<std::size_t>(harness_threads(), cap));
}

void register_workers(const WorkStealingPool& pool) {
  obs::MetricsRegistry::instance()
      .gauge("charz/workers")
      .set(static_cast<double>(pool.workers()));
  obs::set_host_field("workers", std::to_string(pool.workers()));
}

void register_span_pool_stats() {
  const dram::SpanPoolStats stats = dram::span_pool_stats();
  obs::MetricsRegistry::instance()
      .gauge("charz/span_pool_recycle_rate")
      .set(stats.recycle_rate());
  obs::set_host_field("span_pool_hits", std::to_string(stats.hits));
  obs::set_host_field("span_pool_misses", std::to_string(stats.misses));
  std::ostringstream rate;
  rate << stats.recycle_rate();
  obs::set_host_field("span_pool_recycle_rate", rate.str());
}

namespace {

/// Seals the task's observability buffer: chip-task metadata for the
/// synthesized trace span, a structured event per failed attempt having
/// already been recorded inside the loop.
void seal_obs_buffer(ChipReport& report) {
  if (report.obs == nullptr) return;
  report.obs->attempts = report.attempts;
  report.obs->succeeded = report.succeeded;
  report.obs->error = report.error;
  static obs::Histogram& attempts_hist =
      obs::MetricsRegistry::instance().histogram("charz/task_attempts",
                                                 {1, 2, 3, 4, 5, 6});
  attempts_hist.observe(static_cast<double>(report.attempts));
}

/// Everything one slot subtask hands back to its chip task. Written by
/// exactly one worker, read by the chip task after the join.
struct SlotOutcome {
  std::shared_ptr<obs::TaskBuffer> obs;
  fault::FaultCounters faults;
  std::vector<std::string> trace;
  std::exception_ptr error;  ///< set when the slot threw.
};

}  // namespace

ChipReport run_chip_task_resilient(
    const Plan& plan, const ChipTask& task, std::size_t task_ordinal,
    const fault::Resilience& res, WorkStealingPool& pool,
    const std::function<void(Instance&, std::size_t)>& fn,
    const std::function<void()>& reset) {
  ChipReport report;
  report.module_index = task.module_index;
  report.chip_index = task.chip_index;
  if (obs::enabled())
    report.obs = obs::make_chip_task_buffer(task.module_index,
                                            task.chip_index);
  // Chip-level spans/events of this task — every attempt included — land
  // in the task's own buffer, so the recorded stream is a function of the
  // task, not of which pool worker ran it. Slot subtasks record into
  // their own buffers (bound per worker thread below) and are folded in
  // afterwards in slot order.
  obs::TaskScope obs_scope(report.obs.get());
  // Slot injectors are only built when the spec injects (or traces); a
  // clean run takes the exact pre-resilience path.
  const bool slot_faults = res.spec.injects() || res.spec.trace;
  const std::size_t slots = slots_per_chip(plan);
  // Running end of the chip's virtual timeline: each absorbed slot is
  // shifted to start where the previous one ended, which keeps the merged
  // trace identical at any worker count.
  double virtual_cursor = 0.0;
  // Chip-level fault decisions (crash, delay) are drawn by run_attempts
  // before the body fans out, from the historical whole-chip key
  // (subtask 0), so whether an attempt crashes or stalls is unchanged by
  // the slot decomposition.
  fault::run_attempts(
      report, res, task.module_index,
      static_cast<std::uint32_t>(task.chip_index), task_ordinal,
      [task_ordinal](unsigned attempt) {
        return "injected chip-task crash (task " +
               std::to_string(task_ordinal) + ", attempt " +
               std::to_string(attempt) + ")";
      },
      [&](unsigned attempt, fault::ChipInjector*) {
        std::vector<SlotOutcome> outcomes(slots);
        {
          WorkStealingPool::Group group(pool);
          for (std::size_t slot = 0; slot < slots; ++slot) {
            group.spawn([&plan, &task, &res, &fn, &outcomes, slot_faults,
                         attempt, slot, has_obs = report.obs != nullptr] {
              SlotOutcome& outcome = outcomes[slot];
              if (has_obs)
                outcome.obs = std::make_shared<obs::TaskBuffer>(
                    0, "s" + std::to_string(slot), obs::ring_capacity());
              obs::TaskScope scope(outcome.obs.get());
              std::optional<fault::ChipInjector> injector;
              if (slot_faults)
                injector.emplace(res.spec, res.fault_seed, task.module_index,
                                 static_cast<std::uint32_t>(task.chip_index),
                                 attempt, static_cast<unsigned>(slot) + 1);
              try {
                run_slot_task(plan, task, slot,
                              injector ? &*injector : nullptr, fn);
              } catch (...) {
                outcome.error = std::current_exception();
              }
              if (injector) {
                outcome.faults = injector->counters();
                outcome.trace = injector->trace();
              }
            });
          }
          group.wait();
        }
        // Deterministic slot-order aggregation: counters, fault traces,
        // obs buffers, and the winning error (the lowest failed slot's)
        // are all independent of which worker finished when.
        std::exception_ptr error;
        for (std::size_t slot = 0; slot < slots; ++slot) {
          SlotOutcome& outcome = outcomes[slot];
          if (report.obs != nullptr && outcome.obs != nullptr) {
            const double start = virtual_cursor;
            const double duration = outcome.obs->end_ns();
            report.obs->add_span(
                {"subtask s" + std::to_string(slot), "charz", start, duration,
                 {{"attempt", std::to_string(attempt)}}});
            report.obs->absorb(*outcome.obs, start);
            virtual_cursor = start + duration;
          }
          report.faults += outcome.faults;
          report.trace.insert(report.trace.end(), outcome.trace.begin(),
                              outcome.trace.end());
          if (outcome.error && !error) error = outcome.error;
        }
        if (error) std::rethrow_exception(error);
      },
      [&reset](unsigned attempt, double backoff_ms) {
        reset();
        obs::Fields fields{{"attempt", std::to_string(attempt)}};
        if (backoff_ms > 0.0) {
          static obs::Histogram& backoff_hist =
              obs::MetricsRegistry::instance().histogram(
                  "charz/backoff_ms",
                  {0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
          backoff_hist.observe(backoff_ms);
          fields.emplace_back("backoff_ms", std::to_string(backoff_ms));
        }
        obs::emit_event("task.retry", std::move(fields));
      },
      [](unsigned attempt, const std::string& error) {
        obs::emit_event("task.attempt_failed",
                        {{"attempt", std::to_string(attempt)},
                         {"error", error}});
      });
  seal_obs_buffer(report);
  return report;
}

Coverage collect_coverage(std::vector<ChipReport> reports,
                          const fault::Resilience& res) {
  Coverage cov;
  cov.chips_attempted = reports.size();
  for (ChipReport& report : reports) {
    if (report.succeeded)
      ++cov.chips_succeeded;
    else
      ++cov.chips_quarantined;
    if (report.attempts > 0) cov.retries += report.attempts - 1;
    // Seal each task's buffer into the global log here, on the collecting
    // thread and in (module, chip) task order: the rendered artifact is
    // independent of how the pool interleaved the tasks.
    if (report.obs != nullptr)
      obs::Log::instance().submit(std::move(report.obs));
    if (!report.succeeded)
      obs::emit_event("task.quarantined",
                      {{"chip", report.label()},
                       {"attempts", std::to_string(report.attempts)},
                       {"error", report.error}});
  }
  cov.chips = std::move(reports);
  cov.publish_counters();
  if (obs::enabled())
    obs::emit_event(cov.complete() ? "coverage" : "coverage.degraded",
                    {{"succeeded", std::to_string(cov.chips_succeeded)},
                     {"attempted", std::to_string(cov.chips_attempted)},
                     {"quarantined", std::to_string(cov.chips_quarantined)},
                     {"retries", std::to_string(cov.retries)}});
  if (cov.chips_quarantined > res.spec.effective_quarantine_budget()) {
    std::ostringstream os;
    os << cov.chips_quarantined << " of " << cov.chips_attempted
       << " chip tasks failed (quarantine budget "
       << res.spec.effective_quarantine_budget() << " exceeded)";
    for (const ChipReport& chip : cov.chips) {
      if (chip.succeeded) continue;
      os << "; first (" << chip.label()
         << "): " << (chip.error.empty() ? "failed" : chip.error);
      break;
    }
    obs::emit_event("coverage.aborted",
                    {{"budget",
                      std::to_string(res.spec.effective_quarantine_budget())},
                     {"quarantined", std::to_string(cov.chips_quarantined)}});
    throw HarnessError(os.str(), std::move(cov));
  }
  return cov;
}

void dispatch_tasks(WorkStealingPool& pool, std::size_t n_tasks,
                    const std::function<void(std::size_t)>& fn) {
  if (n_tasks == 0) return;
  struct Failure {
    std::size_t task = 0;
    std::exception_ptr error;
    std::string message;
  };
  std::vector<Failure> failures;
  std::mutex failures_mutex;
  // Collects instead of aborting: a multi-chip fault burst is reported
  // whole, not one failure per run.
  {
    WorkStealingPool::Group group(pool);
    for (std::size_t i = 0; i < n_tasks; ++i) {
      group.spawn([&fn, &failures, &failures_mutex, i] {
        try {
          fn(i);
        } catch (...) {
          Failure failure;
          failure.task = i;
          failure.error = std::current_exception();
          try {
            throw;
          } catch (const std::exception& e) {
            failure.message = e.what();
          } catch (...) {
            failure.message = "unknown exception";
          }
          const std::lock_guard<std::mutex> lock(failures_mutex);
          failures.push_back(std::move(failure));
        }
      });
    }
    group.wait();
  }
  if (failures.empty()) return;
  std::sort(failures.begin(), failures.end(),
            [](const Failure& a, const Failure& b) { return a.task < b.task; });
  // Every collected failure becomes a structured event (task order, on the
  // dispatching thread), not just the one that wins the rethrow below.
  for (const Failure& failure : failures)
    obs::emit_event("worker.failure", {{"task", std::to_string(failure.task)},
                                       {"error", failure.message}});
  if (failures.size() == 1) std::rethrow_exception(failures.front().error);
  std::ostringstream os;
  os << failures.size() << " of " << n_tasks << " tasks failed";
  constexpr std::size_t kMaxListed = 4;
  for (std::size_t i = 0; i < failures.size() && i < kMaxListed; ++i)
    os << "; (task " << failures[i].task << "): " << failures[i].message;
  if (failures.size() > kMaxListed)
    os << "; ... " << (failures.size() - kMaxListed) << " more";
  throw std::runtime_error(os.str());
}

void dispatch_tasks(std::size_t n_tasks, unsigned threads,
                    const std::function<void(std::size_t)>& fn) {
  if (n_tasks == 0) return;
  WorkStealingPool pool(static_cast<unsigned>(
      std::min<std::size_t>(std::max(threads, 1u), n_tasks)));
  dispatch_tasks(pool, n_tasks, fn);
}

}  // namespace detail
}  // namespace simra::charz
