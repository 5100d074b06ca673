// Retry / quarantine / graceful-degradation behaviour of the resilient
// harness, driven through SIMRA_FAULT_SPEC. The companion determinism
// properties (fault traces at 1 vs 4 threads, zero-rate byte-identity)
// live in property_suite_test.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "charz/runner.hpp"
#include "charz/series.hpp"
#include "common/prof.hpp"
#include "pud/success.hpp"
#include "support/scoped_env.hpp"

namespace simra::charz {
namespace {

using simra::testing::ScopedFaultSpec;
using simra::testing::ScopedThreads;

Plan small_plan() {
  Plan p;
  p.modules = {{dram::VendorProfile::hynix_m(), 2},
               {dram::VendorProfile::micron_e(), 1}};
  p.chips_per_module = 2;
  p.banks_per_chip = 1;
  p.subarrays_per_bank = 2;
  p.groups_per_size = 1;
  p.trials = 2;
  p.seed = 77;
  return p;
}

struct Counter {
  std::size_t visits = 0;
  void merge(const Counter& other) { visits += other.visits; }
};

TEST(Resilience, CrashedTasksAreQuarantinedAfterBoundedRetries) {
  ScopedFaultSpec scoped("task.crash_tasks=1:4,retry.max=2");
  ScopedThreads threads("2");
  const Plan p = small_plan();  // 6 chip tasks, 2 instances each.
  const Sweep<Counter> sweep = run_instances<Counter>(
      p, [](Instance&, Counter& c) { ++c.visits; });

  const Coverage& cov = sweep.coverage;
  EXPECT_EQ(cov.chips_attempted, 6u);
  EXPECT_EQ(cov.chips_succeeded, 4u);
  EXPECT_EQ(cov.chips_quarantined, 2u);
  // Each crashed task burns its full retry budget: 2 retries apiece.
  EXPECT_EQ(cov.retries, 4u);
  EXPECT_FALSE(cov.complete());
  ASSERT_EQ(cov.chips.size(), 6u);
  for (const std::size_t ordinal : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_FALSE(cov.chips[ordinal].succeeded);
    EXPECT_EQ(cov.chips[ordinal].attempts, 3u);
    EXPECT_NE(cov.chips[ordinal].error.find("injected chip-task crash"),
              std::string::npos)
        << cov.chips[ordinal].error;
  }
  // Only the 4 surviving chips contribute to the merged result.
  EXPECT_EQ(sweep.result.visits, 8u);

  const std::string summary = cov.summary();
  EXPECT_EQ(summary.rfind("coverage: ", 0), 0u) << summary;
  EXPECT_NE(summary.find("4/6 chips"), std::string::npos) << summary;
  EXPECT_NE(summary.find("2 quarantined"), std::string::npos) << summary;
}

TEST(Resilience, QuarantineIsDeterministicAcrossThreadCounts) {
  ScopedFaultSpec scoped("task.crash_tasks=0:3,retry.max=1", "42");
  const Plan p = small_plan();
  const auto sweep_at = [&p](const char* threads) {
    ScopedThreads scoped_threads(threads);
    return run_instances<Counter>(p,
                                  [](Instance&, Counter& c) { ++c.visits; });
  };
  const Sweep<Counter> serial = sweep_at("1");
  const Sweep<Counter> parallel = sweep_at("4");
  EXPECT_EQ(serial.result.visits, parallel.result.visits);
  EXPECT_EQ(serial.coverage.summary(), parallel.coverage.summary());
  ASSERT_EQ(serial.coverage.chips.size(), parallel.coverage.chips.size());
  for (std::size_t i = 0; i < serial.coverage.chips.size(); ++i) {
    EXPECT_EQ(serial.coverage.chips[i].attempts,
              parallel.coverage.chips[i].attempts);
    EXPECT_EQ(serial.coverage.chips[i].succeeded,
              parallel.coverage.chips[i].succeeded);
    EXPECT_EQ(serial.coverage.chips[i].faults.total(),
              parallel.coverage.chips[i].faults.total());
  }
}

TEST(Resilience, ExplicitQuarantineBudgetAbortsWithCoverage) {
  ScopedFaultSpec scoped(
      "task.crash_tasks=0:1:2,retry.max=0,quarantine.budget=1");
  ScopedThreads threads("2");
  const Plan p = small_plan();
  try {
    (void)run_instances<Counter>(p, [](Instance&, Counter& c) { ++c.visits; });
    FAIL() << "expected HarnessError";
  } catch (const HarnessError& e) {
    EXPECT_NE(std::string(e.what()).find("quarantine budget"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.coverage().chips_quarantined, 3u);
    EXPECT_EQ(e.coverage().chips_attempted, 6u);
  }
}

TEST(Resilience, CleanRunsAbortOnFirstRealFailure) {
  // No fault spec: a genuine model failure must not be swept under the
  // quarantine rug (budget is zero), even after exhausting retries.
  ScopedFaultSpec scoped(nullptr);
  ScopedThreads threads("1");
  const Plan p = small_plan();
  EXPECT_THROW(run_instances<Counter>(
                   p,
                   [](Instance& inst, Counter& c) {
                     if (inst.module_index == 1 && inst.chip_index == 0)
                       throw std::runtime_error("real model bug");
                     ++c.visits;
                   }),
               HarnessError);
}

TEST(Resilience, RetryRecoversTransientFailures) {
  // Policy-only spec: retries configured, nothing injected. A failure on
  // the first attempt of one chip recovers on the retry, so the sweep
  // completes with full coverage.
  ScopedFaultSpec scoped("retry.max=3");
  ScopedThreads threads("1");
  const Plan p = small_plan();
  std::atomic<int> remaining_failures{1};
  const Sweep<Counter> sweep = run_instances<Counter>(
      p, [&remaining_failures](Instance& inst, Counter& c) {
        if (inst.module_index == 0 && inst.chip_index == 0 &&
            remaining_failures.fetch_sub(1) > 0)
          throw std::runtime_error("transient");
        ++c.visits;
      });
  EXPECT_TRUE(sweep.coverage.complete());
  EXPECT_EQ(sweep.coverage.retries, 1u);
  EXPECT_EQ(sweep.coverage.chips[0].attempts, 2u);
  EXPECT_EQ(sweep.result.visits, p.instance_count());
}

TEST(Resilience, FailedAttemptsDoNotLeakPartialSamples) {
  // The failing attempt visits one instance before dying; the retry must
  // start from a fresh accumulator or that visit would be double-counted.
  ScopedFaultSpec scoped("retry.max=2");
  ScopedThreads threads("1");
  const Plan p = small_plan();
  std::atomic<int> remaining_failures{1};
  const Sweep<Counter> sweep = run_instances<Counter>(
      p, [&remaining_failures](Instance& inst, Counter& c) {
        ++c.visits;  // count first, then maybe die mid-task
        if (inst.module_index == 0 && inst.chip_index == 0 &&
            inst.subarray == 1 && remaining_failures.fetch_sub(1) > 0)
          throw std::runtime_error("transient mid-task");
      });
  EXPECT_TRUE(sweep.coverage.complete());
  EXPECT_EQ(sweep.result.visits, p.instance_count());
}

TEST(Resilience, RetriedChipReproducesTheCleanSweep) {
  // A retry attempt builds fresh slot chips, which recompute every
  // deviate span and mask the failed attempt had already memoized. Its
  // samples must still equal a clean run's bit for bit. The weak t2 puts
  // success mid-range (medians 46-97 %), so a wrong span moves the table.
  const Plan p = small_plan();
  const auto sweep = [&p](std::atomic<int>* failures) {
    return run_instances<SeriesAccumulator>(
        p, [&p, failures](Instance& inst, SeriesAccumulator& out) {
          for (double t1 : {1.5, 36.0}) {
            pud::MeasureConfig cfg;
            cfg.trials = p.trials;
            cfg.timings = {Nanoseconds{t1}, Nanoseconds{1.5}};
            for (std::size_t n : {2u, 8u, 32u}) {
              const pud::RowGroup group =
                  pud::sample_group(inst.engine.layout(), n, inst.rng);
              out.add({format_ns(t1), std::to_string(n)},
                      pud::measure_smra(inst.engine, inst.bank, inst.subarray,
                                        group, cfg, inst.rng));
            }
          }
          if (failures != nullptr && inst.module_index == 0 &&
              inst.chip_index == 0 && failures->fetch_sub(1) > 0)
            throw std::runtime_error("transient after measuring");
        });
  };
  ScopedThreads threads("2");
  Sweep<SeriesAccumulator> clean;
  {
    ScopedFaultSpec scoped(nullptr);
    clean = sweep(nullptr);
  }
  ScopedFaultSpec scoped("retry.max=1");
  std::atomic<int> failures{1};
  const Sweep<SeriesAccumulator> retried = sweep(&failures);
  EXPECT_TRUE(retried.coverage.complete());
  EXPECT_EQ(retried.coverage.retries, 1u);
  EXPECT_EQ(retried.coverage.chips[0].attempts, 2u);
  const auto text = [](const Sweep<SeriesAccumulator>& s) {
    return finish_sweep(s, "SiMRA", {"t1", "N"}).to_table().to_text();
  };
  EXPECT_EQ(text(retried), text(clean));
}

TEST(Resilience, CountersArePublishedToProf) {
  const std::uint64_t before_retries =
      prof::Counter::get("resilience/retries").calls();
  const std::uint64_t before_quarantined =
      prof::Counter::get("resilience/quarantined_chips").calls();
  ScopedFaultSpec scoped("task.crash_tasks=2,retry.max=1");
  ScopedThreads threads("1");
  (void)run_instances<Counter>(small_plan(),
                               [](Instance&, Counter& c) { ++c.visits; });
  EXPECT_EQ(prof::Counter::get("resilience/retries").calls(),
            before_retries + 1);
  EXPECT_EQ(prof::Counter::get("resilience/quarantined_chips").calls(),
            before_quarantined + 1);
}

TEST(Resilience, TaskDelayInjectsLatencyWithoutChangingResults) {
  const Plan p = small_plan();
  Sweep<Counter> clean, delayed;
  {
    ScopedFaultSpec scoped(nullptr);
    ScopedThreads threads("1");
    clean = run_instances<Counter>(p, [](Instance&, Counter& c) { ++c.visits; });
  }
  {
    ScopedFaultSpec scoped("task.delay_ms=1");
    ScopedThreads threads("1");
    delayed =
        run_instances<Counter>(p, [](Instance&, Counter& c) { ++c.visits; });
  }
  EXPECT_EQ(clean.result.visits, delayed.result.visits);
  EXPECT_TRUE(delayed.coverage.complete());
}

}  // namespace
}  // namespace simra::charz
