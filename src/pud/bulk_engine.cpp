#include "pud/bulk_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace simra::pud {

using bender::Program;

BulkEngine::BulkEngine(Engine* engine) : engine_(engine) {
  if (engine_ == nullptr) throw std::invalid_argument("bulk engine needs an engine");
}

void BulkEngine::stage_majx_operands(std::span<const dram::BankId> banks,
                                     dram::SubarrayId sa,
                                     const RowGroup& group,
                                     const MajxConfig& config) {
  for (dram::BankId bank : banks) engine_->stage_majx(bank, sa, group, config);
}

BulkEngine::BulkResult BulkEngine::run_pipelined(
    std::span<const dram::BankId> banks, dram::SubarrayId sa,
    const RowGroup& group, ApaTimings timings, bool read_buffers) {
  if (banks.empty()) throw std::invalid_argument("need at least one bank");
  const auto& t = engine_->chip().profile().timings;
  const std::size_t columns = engine_->chip().profile().geometry.columns;
  const dram::RowAddr rf = engine_->global_of(sa, group.row_first);
  const dram::RowAddr rs = engine_->global_of(sa, group.row_second);

  // Per-bank command offsets in slots: {0, s1, s1 + s2}. Bank i is
  // shifted by i * stride slots; the stride is the smallest value whose
  // multiples collide with none of the pairwise offset differences, so
  // every bank keeps its exact APA deltas while its neighbours' commands
  // fill the wait windows (the command bus is free during t1/t2).
  const auto s1 =
      static_cast<std::int64_t>(timings.t1.value / bender::kSlotNs + 0.5);
  const auto s2 =
      static_cast<std::int64_t>(timings.t2.value / bender::kSlotNs + 0.5);
  const std::int64_t offsets[3] = {0, s1, s1 + s2};
  std::int64_t stride = 1;
  for (;; ++stride) {
    bool collides = false;
    for (std::size_t k = 1; k < banks.size() && !collides; ++k) {
      const std::int64_t shift = stride * static_cast<std::int64_t>(k);
      for (std::int64_t a : offsets)
        for (std::int64_t b : offsets)
          if (a - b == shift) collides = true;
    }
    if (!collides) break;
  }

  struct Event {
    std::int64_t slot;
    dram::BankId bank;
    int kind;  // 0 = ACT rf, 1 = PRE, 2 = ACT rs.
  };
  std::vector<Event> events;
  events.reserve(banks.size() * 3);
  for (std::size_t i = 0; i < banks.size(); ++i) {
    const std::int64_t base = stride * static_cast<std::int64_t>(i);
    events.push_back({base, banks[i], 0});
    events.push_back({base + s1, banks[i], 1});
    events.push_back({base + s1 + s2, banks[i], 2});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.slot < b.slot; });

  Program p;
  p.set_name("bulk_pipelined");
  // Every bank runs a full APA (tRAS/tRP cut on purpose), and the
  // interleaved schedule packs more than four ACTs into a tFAW window by
  // design — the banks are independent, so the rank-wide ACT pacing rule
  // does not gate the experiment.
  for (dram::BankId bank : banks)
    p.expect(verify::apa_intents(static_cast<int>(bank)));
  p.expect(verify::Intent{verify::RuleId::kTfaw, verify::kAnyBank,
                          "bulk_pipeline"});
  std::int64_t prev = -1;
  for (const Event& e : events) {
    if (prev >= 0) {
      const std::int64_t gap = e.slot - prev;
      if (gap <= 0) throw std::logic_error("bulk schedule slot collision");
      // gap == 1 is the implicit one-slot advance of back-to-back
      // commands; larger gaps need an explicit delay from `prev`.
      if (gap > 1)
        p.delay(Nanoseconds{static_cast<double>(gap) * bender::kSlotNs});
    }
    switch (e.kind) {
      case 0:
        p.act(e.bank, rf);
        break;
      case 1:
        p.pre(e.bank);
        break;
      case 2:
        p.act(e.bank, rs);
        break;
    }
    prev = e.slot;
  }
  // Let the last bank finish sensing + restore, then drain all banks.
  p.delay_at_least(t.tRAS);
  if (read_buffers) {
    for (std::size_t i = 0; i < banks.size(); ++i) {
      // Successive bursts from different banks still share the data bus:
      // space the drain reads by tCCD.
      if (i > 0) p.delay_at_least(t.tCCD);
      p.rd(banks[i], 0, columns);
    }
  }
  for (dram::BankId bank : banks) p.pre(bank);
  p.delay_at_least(t.tRP);

  auto exec = engine_->executor().run(p);

  BulkResult result;
  result.results = std::move(exec.reads);
  result.duration_ns = exec.duration_ns;
  const double serial_one =
      timings.t1.value + timings.t2.value + t.tRAS.value + t.tRP.value +
      (read_buffers ? t.tCCD.value : 0.0);
  result.serial_duration_ns = serial_one * static_cast<double>(banks.size());
  return result;
}

BulkEngine::BulkResult BulkEngine::majx_pipelined(
    std::span<const dram::BankId> banks, dram::SubarrayId sa,
    const RowGroup& group, const MajxConfig& config) {
  return run_pipelined(banks, sa, group, config.timings,
                       /*read_buffers=*/true);
}

BulkEngine::BulkResult BulkEngine::multi_row_copy_pipelined(
    std::span<const dram::BankId> banks, dram::SubarrayId sa,
    const RowGroup& group, ApaTimings timings) {
  return run_pipelined(banks, sa, group, timings, /*read_buffers=*/false);
}

}  // namespace simra::pud
