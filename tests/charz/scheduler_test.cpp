// The scheduling invariants the sweep-point decomposition must preserve:
// figure tables byte-identical at any SIMRA_THREADS, SIMD tier invisible
// in the output, and quarantine coverage unchanged by how chip work is
// split into slot subtasks. The pool's own unit tests are in
// pool_test.cpp.

#include <gtest/gtest.h>

#include <iomanip>
#include <optional>
#include <sstream>
#include <string>

#include "charz/figures.hpp"
#include "charz/runner.hpp"
#include "dram/kernels.hpp"
#include "support/scoped_env.hpp"

namespace simra::charz {
namespace {

using simra::testing::ScopedFaultSpec;
using simra::testing::ScopedThreads;

/// Full-precision figure dump (same shape as the golden suite) so
/// sub-rendering drift across thread counts or SIMD tiers still fails.
std::string dump(const FigureData& figure) {
  std::ostringstream os;
  os << figure.title << "\n" << figure.to_table().to_text();
  os << std::hexfloat;
  for (const auto& row : figure.rows) {
    for (const auto& k : row.keys) os << k << "|";
    os << " " << row.stats.min << " " << row.stats.median << " "
       << row.stats.max << " " << row.stats.mean << " " << row.stats.count
       << "\n";
  }
  return os.str();
}

TEST(SchedulerDeterminism, FigureTablesIdenticalAcrossThreadCounts) {
  const Plan plan = Plan::quick();
  for (auto* generator : {&fig3_smra_timing, &fig10_mrc_timing}) {
    std::string serial;
    {
      ScopedThreads scoped("1");
      serial = dump(generator(plan));
    }
    for (const char* threads : {"3", "16"}) {
      ScopedThreads scoped(threads);
      EXPECT_EQ(dump(generator(plan)), serial)
          << "diverged at SIMRA_THREADS=" << threads;
    }
  }
}

/// Forces one SIMD tier for the scope, then restores env-based resolution.
class ScopedSimd {
 public:
  explicit ScopedSimd(dram::kernels::SimdTier tier) {
    dram::kernels::set_simd_for_test(tier);
  }
  ~ScopedSimd() { dram::kernels::set_simd_for_test(std::nullopt); }
};

TEST(SchedulerDeterminism, FigureTablesIdenticalAcrossSimdTiers) {
  if (!dram::kernels::avx2_supported())
    GTEST_SKIP() << "AVX2 unavailable on this machine";
  ScopedThreads threads("2");
  const Plan plan = Plan::quick();
  for (auto* generator : {&fig3_smra_timing, &fig10_mrc_timing}) {
    std::string scalar;
    {
      ScopedSimd scoped(dram::kernels::SimdTier::scalar);
      scalar = dump(generator(plan));
    }
    ScopedSimd scoped(dram::kernels::SimdTier::avx2);
    EXPECT_EQ(dump(generator(plan)), scalar)
        << "AVX2 tier diverged from scalar";
  }
}

struct Visits {
  std::size_t count = 0;
  void merge(const Visits& other) { count += other.count; }
};

Plan fault_plan() {
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

TEST(SchedulerDeterminism, QuarantineCoverageInvariantAcrossThreadCounts) {
  // Crashing chips must quarantine atomically (all their slot subtasks
  // discarded together) and identically no matter how many workers split
  // the slots.
  ScopedFaultSpec spec("task.crash_tasks=1:4,retry.max=2");
  std::optional<Coverage> reference;
  std::size_t reference_visits = 0;
  for (const char* threads : {"1", "3", "16"}) {
    ScopedThreads scoped(threads);
    const Sweep<Visits> sweep = run_instances<Visits>(
        fault_plan(), [](Instance&, Visits& v) { ++v.count; });
    const Coverage& cov = sweep.coverage;
    if (!reference) {
      reference = cov;
      reference_visits = sweep.result.count;
      EXPECT_EQ(cov.chips_quarantined, 2u);
      continue;
    }
    EXPECT_EQ(cov.chips_attempted, reference->chips_attempted) << threads;
    EXPECT_EQ(cov.chips_succeeded, reference->chips_succeeded) << threads;
    EXPECT_EQ(cov.chips_quarantined, reference->chips_quarantined) << threads;
    EXPECT_EQ(cov.retries, reference->retries) << threads;
    EXPECT_EQ(sweep.result.count, reference_visits) << threads;
    ASSERT_EQ(cov.chips.size(), reference->chips.size());
    for (std::size_t i = 0; i < cov.chips.size(); ++i) {
      EXPECT_EQ(cov.chips[i].succeeded, reference->chips[i].succeeded)
          << "chip " << i << " at SIMRA_THREADS=" << threads;
      EXPECT_EQ(cov.chips[i].attempts, reference->chips[i].attempts)
          << "chip " << i << " at SIMRA_THREADS=" << threads;
    }
  }
}

TEST(SchedulerDeterminism, WorkerCountResolvesFromEnvironment) {
  {
    ScopedThreads scoped("5");
    EXPECT_EQ(harness_threads(), 5u);
  }
  {
    ScopedThreads scoped("0");
    EXPECT_GE(harness_threads(), 2u) << "auto mode must keep a sane floor";
  }
  {
    ScopedThreads scoped(nullptr);
    EXPECT_GE(harness_threads(), 2u);
  }
}

}  // namespace
}  // namespace simra::charz
