#include "serve/batch.hpp"

#include <stdexcept>

#include "pud/program_builders.hpp"
#include "verify/optimizer.hpp"

namespace simra::serve {

using bender::CommandKind;
using bender::Program;

BatchCompiler::BatchCompiler(const dram::VendorProfile* profile,
                             const dram::PredecoderLayout* layout)
    : profile_(profile), layout_(layout) {
  if (profile_ == nullptr || layout_ == nullptr)
    throw std::invalid_argument("batch compiler needs a profile and layout");
  table_ = verify::RuleTable::ddr4(profile_->timings);
}

std::string BatchCompiler::validate_slot(const Request& request) const {
  const auto& geom = profile_->geometry;
  if (request.bank >= geom.banks) return "bank out of range";
  if (request.sa >= geom.subarrays_per_bank()) return "subarray out of range";
  return {};
}

std::string BatchCompiler::validate(const Request& request,
                                    const pud::RowGroup& group) const {
  const auto& geom = profile_->geometry;
  const std::size_t rows = layout_->rows();
  if (std::string why = validate_slot(request); !why.empty()) return why;
  for (const BitVec& operand : request.operands)
    if (operand.size() != geom.columns)
      return "operand width does not match the row width";
  switch (request.op) {
    case OpKind::kRowClone:
      if (request.src >= rows || request.dst >= rows)
        return "row outside the subarray";
      if (request.src == request.dst)
        return "rowclone source equals destination";
      if (request.operands.size() > 1)
        return "rowclone takes at most one seed operand";
      break;
    case OpKind::kMultiRowCopy:
      if (request.operands.size() > 1)
        return "multi-row copy takes at most one seed operand";
      if (group.size() < 2) return "activation group too small";
      break;
    case OpKind::kBulkInit:
      if (request.operands.size() != 1)
        return "bulk init needs exactly one pattern operand";
      if (group.size() < 2) return "activation group too small";
      break;
    case OpKind::kMajx:
      if (request.operands.size() < 3 || request.operands.size() % 2 == 0)
        return "MAJX needs an odd operand count >= 3";
      if (group.size() < request.operands.size())
        return "activation group smaller than the operand count";
      break;
  }
  return {};
}

CompiledRequest BatchCompiler::compile(const Request& request,
                                       const pud::RowGroup& group) const {
  if (const std::string reason = validate(request, group); !reason.empty())
    throw std::invalid_argument("serve: " + reason);

  const auto& profile = *profile_;
  const std::size_t rows = layout_->rows();
  const std::size_t columns = profile.geometry.columns;
  const dram::BankId bank = request.bank;
  const auto global = [&](dram::RowAddr local) {
    return pud::programs::global_row(request.sa, rows, local);
  };

  CompiledRequest compiled;
  compiled.id = request.id;
  switch (request.op) {
    case OpKind::kRowClone: {
      if (!request.operands.empty())
        compiled.segments.push_back(pud::programs::write_row(
            profile, bank, global(request.src), request.operands.front()));
      compiled.segments.push_back(pud::programs::rowclone(
          profile, bank, global(request.src), global(request.dst)));
      if (request.read_back) {
        compiled.segments.push_back(pud::programs::read_row(
            profile, bank, global(request.dst), columns));
        compiled.reads = 1;
      }
      break;
    }
    case OpKind::kMultiRowCopy:
    case OpKind::kBulkInit: {
      // One APA at the Multi-RowCopy timings writes R_F's content into
      // every row of the group — the §3.4 fan-out that amortizes a full
      // write per destination row into a single activation pair.
      if (!request.operands.empty())
        compiled.segments.push_back(pud::programs::write_row(
            profile, bank, global(group.row_first),
            request.operands.front()));
      compiled.segments.push_back(pud::programs::apa(
          profile, bank, global(group.row_first), global(group.row_second),
          pud::ApaTimings::best_for_multi_row_copy(),
          /*read_buffer=*/false));
      if (request.read_back) {
        compiled.segments.push_back(pud::programs::read_row(
            profile, bank, global(group.row_second), columns));
        compiled.reads = 1;
      }
      break;
    }
    case OpKind::kMajx: {
      for (Program& staged : pud::programs::majx_staging(
               profile, rows, bank, request.sa, group, request.operands))
        compiled.segments.push_back(std::move(staged));
      compiled.segments.push_back(pud::programs::apa(
          profile, bank, global(group.row_first), global(group.row_second),
          pud::ApaTimings::best_for_majx(), /*read_buffer=*/true));
      compiled.reads = 1;
      break;
    }
  }
  return compiled;
}

Program BatchCompiler::fuse(const std::string& name,
                            std::span<const CompiledRequest> batch,
                            std::vector<FusedExtent>* extents) const {
  const auto& t = profile_->timings;
  Program fused;
  fused.set_name(name);
  if (extents) {
    extents->clear();
    extents->reserve(batch.size());
  }
  // Per-request command index range on the fused program, so extents can
  // be recomputed after slot compaction moves everything.
  struct Range {
    std::size_t first_cmd = 0;
    std::size_t last_cmd = 0;
    std::uint64_t end_slots = 0;  ///< request extent incl. trailing pad.
  };
  std::vector<Range> ranges;
  ranges.reserve(batch.size());
  for (const CompiledRequest& compiled : batch) {
    FusedExtent extent;
    Range range;
    range.first_cmd = fused.commands().size();
    extent.first_command = range.first_cmd;
    bool first = true;
    for (const Program& segment : compiled.segments) {
      // The previous segment's trailing tRP already separates the PRE
      // from the next ACT (the nominal-reopen side of the §6 thresholds,
      // as between separately executed programs); the extra pad keeps
      // the rank-wide rolling four-activate window satisfied across the
      // boundary, which serial execution leaves unconstrained.
      if (!fused.empty())
        fused.pad_after_last(CommandKind::kAct, t.tFAW);
      if (first) {
        extent.start_ns =
            static_cast<double>(fused.cursor_slot()) * bender::kSlotNs;
        first = false;
      }
      fused.append(segment);
    }
    extent.end_ns = fused.duration_ns();
    extent.command_count = fused.commands().size() - range.first_cmd;
    range.last_cmd =
        fused.commands().empty() ? 0 : fused.commands().size() - 1;
    range.end_slots = fused.extent_slots();
    ranges.push_back(range);
    if (extents) extents->push_back(extent);
  }

  if (verify::global_opt_mode() != verify::OptMode::kOn || fused.empty())
    return fused;
  verify::Optimized packed = verify::compact(fused, table_);
  if (!packed.stats.compacted ||
      packed.stats.extent_after >= packed.stats.extent_before)
    return fused;
  if (extents) {
    const auto& before = fused.commands();
    const auto& after = packed.program.commands();
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const Range& r = ranges[i];
      if (r.first_cmd >= after.size()) continue;  // request had no commands.
      (*extents)[i].start_ns =
          static_cast<double>(after[r.first_cmd].slot) * bender::kSlotNs;
      // Preserve the request's own trailing pad beyond its last command.
      const std::uint64_t tail = r.end_slots - before[r.last_cmd].slot;
      (*extents)[i].end_ns =
          static_cast<double>(after[r.last_cmd].slot + tail) *
          bender::kSlotNs;
    }
  }
  return packed.program;
}

}  // namespace simra::serve
