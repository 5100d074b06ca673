// Differential test: checks the value origins verify::dataflow predicts for
// every row against the chip model that executes the same program. Seeded
// random single-bank programs cover every activation regime (charge share,
// RowClone, cut-short precharge, gating) on both sides of tRP.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "bender/executor.hpp"
#include "bender/program.hpp"
#include "common/rng.hpp"
#include "dram/chip.hpp"
#include "dram/vendor.hpp"
#include "verify/dataflow.hpp"

namespace simra::verify {
namespace {

using bender::CommandKind;
using bender::Program;
using bender::TimedCommand;

constexpr dram::BankId kBank = 2;
constexpr dram::SubarrayId kSubarrays[] = {3, 4};
static_assert(kSubarrays[1] == kSubarrays[0] + 1,
              "fate[] indexes both subarrays as one block");
constexpr int kSeeds = 200;

struct ProfileCase {
  std::string name;
  dram::VendorProfile (*make)();
};

void PrintTo(const ProfileCase& c, std::ostream* os) { *os << c.name; }

bool precharges(const TimedCommand& c) {
  return c.kind == CommandKind::kPre ||
         (c.a10 && (c.kind == CommandKind::kRd || c.kind == CommandKind::kWr));
}

/// A random program over a few rows in two subarrays. Gaps of 1-25 slots
/// put t1 and t2 on both sides of sense enable, precharge settle and tRP.
/// With `exact`, the command after a precharge waits two slots or more.
Program random_program(const dram::Chip& chip, std::uint64_t seed,
                       bool exact) {
  Rng rng(hash_combine(seed, exact ? 0xe1 : 0xf2));
  const std::size_t columns = chip.profile().geometry.columns;
  const std::size_t rows = chip.layout().rows();
  constexpr std::size_t kPerSubarray = 4;
  std::vector<dram::RowAddr> pool;
  for (dram::SubarrayId sa : kSubarrays)
    for (std::size_t i = 0; i < kPerSubarray; ++i)
      pool.push_back(static_cast<dram::RowAddr>(sa * rows + rng.below(rows)));

  Program p;
  std::size_t last_sa = 0;  // index into kSubarrays of the last ACT.
  const int n = 12 + static_cast<int>(rng.below(30));
  for (int i = 0; i < n; ++i) {
    const bool after_pre = i > 0 && precharges(p.commands().back());
    if (i > 0) {
      std::uint64_t gap =
          rng.chance(0.5) ? 1 + rng.below(3) : 1 + rng.below(25);
      if (exact && after_pre) gap = std::max<std::uint64_t>(gap, 2);
      p.delay(Nanoseconds{static_cast<double>(gap) * bender::kSlotNs});
    }
    // Mostly ACT after a precharge, mostly into the same subarray: the
    // APA and RowClone regimes need both.
    const std::uint64_t pick =
        after_pre && rng.chance(0.6) ? 0 : rng.below(100);
    if (pick < 36) {
      if (rng.chance(0.3)) last_sa = rng.below(std::size(kSubarrays));
      p.act(kBank, pool[last_sa * kPerSubarray + rng.below(kPerSubarray)]);
    } else if (pick < 60) {
      p.pre(kBank);
    } else if (pick < 78) {
      const bool full = rng.chance(0.5);
      const std::size_t words = columns / 64;
      const std::size_t len = full ? words : 1 + rng.below(4);
      const std::size_t start = full ? 0 : rng.below(words - len + 1);
      BitVec data(len * 64);
      data.randomize(rng);
      p.wr(kBank, static_cast<dram::ColAddr>(start * 64), std::move(data),
           /*auto_precharge=*/rng.chance(0.2));
    } else if (pick < 90) {
      p.rd(kBank, 0, 64, /*auto_precharge=*/rng.chance(0.25));
    } else if (pick < 95) {
      p.prea();
    } else {
      p.ref();
    }
  }
  return p;
}

/// Steps the chip's bank through the program. REF and PREA reach only
/// kBank, which is all the program touches; a RD to a closed bank (which
/// the chip rejects) reads nothing.
void execute(dram::Chip& chip, const Program& p) {
  dram::Bank& bank = chip.bank(kBank);
  for (const TimedCommand& c : p.commands()) {
    const double t = c.time_ns();
    switch (c.kind) {
      case CommandKind::kAct:
        bank.act(c.row, t);
        break;
      case CommandKind::kPre:
        bank.pre(t);
        break;
      case CommandKind::kWr:
        bank.write(c.col, c.data, t);
        if (c.a10) bank.pre(t);
        break;
      case CommandKind::kRd:
        if (bank.is_open()) bank.read(c.col, c.nbits, t);
        if (c.a10) bank.pre(t);
        break;
      case CommandKind::kRef:
        bank.refresh(t);
        break;
    }
  }
}

/// At t2 = 1.5 ns the chip drops a random subset of the weakly re-latched
/// rows, which no static pass can predict.
bool has_one_slot_reopen(const Program& p) {
  const auto& cmds = p.commands();
  for (std::size_t i = 1; i < cmds.size(); ++i)
    if (cmds[i].kind == CommandKind::kAct && precharges(cmds[i - 1]) &&
        cmds[i].slot == cmds[i - 1].slot + 1)
      return true;
  return false;
}

class DataflowChipTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(DataflowChipTest, RowOriginsMatchTheExecutedChip) {
  std::uint64_t exact_programs = 0;
  std::uint64_t apas = 0;
  std::uint64_t copies = 0;
  std::uint64_t fracs = 0;
  std::uint64_t gated = 0;
  for (const bool exact : {false, true}) {
    for (int seed = 0; seed < kSeeds; ++seed) {
      dram::Chip chip(GetParam().make(), static_cast<std::uint64_t>(seed));
      bender::Executor executor(&chip);
      const Program p = random_program(chip, seed, exact);
      const DataflowResult flow = dataflow(p, executor.program_context());
      execute(chip, p);
      dram::Bank& bank = chip.bank(kBank);
      const dram::CommandStats& stats = bank.stats();
      ASSERT_EQ(flow.apas.size(), stats.simultaneous_activations)
          << "seed " << seed << "\n" << p.to_string();
      apas += stats.simultaneous_activations;
      copies += stats.consecutive_activations;
      fracs += stats.frac_events;
      gated += stats.gated_commands;
      if (has_one_slot_reopen(p)) {
        ASSERT_FALSE(exact);
        continue;
      }
      ++exact_programs;

      const std::size_t rows = chip.layout().rows();
      std::vector<const RowFate*> fate(std::size(kSubarrays) * rows, nullptr);
      for (const RowFate& f : flow.rows) {
        ASSERT_EQ(f.bank, kBank);
        ASSERT_TRUE(f.sa == kSubarrays[0] || f.sa == kSubarrays[1]);
        fate[(f.sa - kSubarrays[0]) * rows + f.row] = &f;
      }
      for (dram::SubarrayId sa : kSubarrays) {
        dram::Subarray& cells = bank.subarray(sa);
        for (dram::RowAddr r = 0; r < rows; ++r) {
          const RowFate* f = fate[(sa - kSubarrays[0]) * rows + r];
          const bool chip_frac = cells.row_state(r) == dram::RowState::kFrac;
          const bool flow_frac = f != nullptr && f->origin == RowOrigin::kFrac;
          ASSERT_EQ(flow_frac, chip_frac)
              << "seed " << seed << " sa " << sa << " row " << r << "\n"
              << p.to_string();
          if (f != nullptr && f->origin == RowOrigin::kWritten &&
              f->payload != nullptr) {
            ASSERT_EQ(cells.row_data(r), *f->payload)
                << "seed " << seed << " sa " << sa << " row " << r << "\n"
                << p.to_string();
          }
        }
      }
    }
  }
  // Every regime the programs are meant to reach was reached.
  EXPECT_GT(exact_programs, static_cast<std::uint64_t>(kSeeds));
  EXPECT_GT(fracs, 0u);
  if (GetParam().make().gates_violated_timings) {
    EXPECT_GT(gated, 0u);
    EXPECT_EQ(apas + copies, 0u);
  } else {
    EXPECT_GT(apas, 0u);
    EXPECT_GT(copies, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, DataflowChipTest,
    ::testing::Values(
        ProfileCase{"hynix_m", &dram::VendorProfile::hynix_m},
        ProfileCase{"hynix_m_scrambled",
                    &dram::VendorProfile::hynix_m_scrambled},
        ProfileCase{"hynix_a", &dram::VendorProfile::hynix_a},
        ProfileCase{"micron_e", &dram::VendorProfile::micron_e},
        ProfileCase{"samsung", &dram::VendorProfile::samsung}),
    [](const ::testing::TestParamInfo<ProfileCase>& profile) {
      return profile.param.name;
    });

}  // namespace
}  // namespace simra::verify
