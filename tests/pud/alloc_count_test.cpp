// Heap allocations on the engine's per-row command path. This binary
// replaces the global operator new with a counting one, so it is its own
// test executable: the count covers everything the code under test
// allocates, down to the bank and the electrical model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "dram/chip.hpp"
#include "obs/obs.hpp"
#include "pud/engine.hpp"
#include "pud/row_group.hpp"
#include "verify/analyzer.hpp"
#include "verify/optimizer.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace simra::pud {
namespace {

/// Allocations made while `body` runs.
template <class Body>
std::size_t allocations_in(Body&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class AllocCountTest : public ::testing::Test {
 protected:
  // Neither the verify gate nor the optimizer may run: both analyze or
  // rewrite each program, and whether they do is an environment choice.
  void SetUp() override {
    verify::set_global_mode(verify::Mode::kOff);
    verify::set_global_opt_mode(verify::OptMode::kOff);
    obs::set_enabled_for_test(false);
  }
  void TearDown() override {
    verify::set_global_mode(std::nullopt);
    verify::set_global_opt_mode(std::nullopt);
    obs::set_enabled_for_test(std::nullopt);
  }

  BitVec random_row() {
    BitVec v(chip_.profile().geometry.columns);
    v.randomize(rng_);
    return v;
  }

  /// Allocations of one MAJ3 trial on a group of `group_size` rows, after
  /// a warm-up trial on the same group.
  std::size_t maj3_trial(std::size_t group_size) {
    const RowGroup group = sample_group(chip_.layout(), group_size, rng_);
    MajxConfig config;
    config.x = 3;
    for (int i = 0; i < 3; ++i) config.operands.push_back(random_row());
    engine_.majx(0, 2, group, config);
    return allocations_in([&] { engine_.majx(0, 2, group, config); });
  }

  dram::Chip chip_{dram::VendorProfile::hynix_m(), 23};
  Engine engine_{&chip_};
  Rng rng_{29};
};

TEST_F(AllocCountTest, WriteRowAllocatesNothing) {
  const BitVec a = random_row();
  const BitVec b = random_row();
  // The warm-up builds the program and materializes both subarrays.
  engine_.write_row(1, 40, a);
  engine_.write_row(1, 600, a);
  EXPECT_EQ(allocations_in([&] {
              engine_.write_row(1, 40, b);
              engine_.write_row(1, 41, a);
              engine_.write_row(1, 600, b);
            }),
            0u);
  EXPECT_EQ(engine_.read_row(1, 40), b);
  EXPECT_EQ(engine_.read_row(1, 41), a);
  EXPECT_EQ(engine_.read_row(1, 600), b);
}

TEST_F(AllocCountTest, Maj3TrialDoesNotGrowWithTheGroup) {
  const std::size_t at4 = maj3_trial(4);
  const std::size_t at32 = maj3_trial(32);
  std::printf("MAJ3 trial allocations: N=4 %zu, N=32 %zu\n", at4, at32);
  EXPECT_LE(at32, at4) << "N=4: " << at4 << ", N=32: " << at32;
}

}  // namespace
}  // namespace simra::pud
