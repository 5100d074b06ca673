#include "serve/shard.hpp"

#include <algorithm>
#include <charconv>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "verify/dataflow.hpp"
#include "verify/lint.hpp"
#include "verify/occupancy.hpp"
#include "verify/optimizer.hpp"

namespace simra::serve {

namespace {

// Activation-group steering: candidates scored per (bank, subarray), and
// reliability trials per candidate.
constexpr std::size_t kCandidateGroups = 4;
constexpr unsigned kSteerTrials = 1;

std::uint64_t shard_chip_seed(std::uint64_t service_seed,
                              std::uint32_t index) {
  return hash_combine(service_seed, index);
}

}  // namespace

Shard::Shard(Config config, std::uint32_t index)
    : config_(std::move(config)),
      index_(index),
      chip_(config_.profile, shard_chip_seed(config_.seed, index)),
      engine_(&chip_),
      compiler_(&chip_.profile(), &chip_.layout()),
      steer_rng_(hash_combine(hash_combine(config_.seed, 0x57eeull), index)),
      reliability_(&engine_, &steer_rng_) {}

const pud::RowGroup& Shard::group_for(dram::BankId bank, dram::SubarrayId sa) {
  const auto key = std::make_pair(bank, sa);
  if (auto it = groups_.find(key); it != groups_.end()) return it->second;

  // Candidate groups derive from (service seed, bank, subarray) alone, so
  // the same slot always sees the same candidates regardless of when (or
  // on which worker) it is first profiled.
  Rng rng(hash_combine(hash_combine(hash_combine(config_.seed, 0x9f0full),
                                    bank),
                       sa));
  std::vector<pud::RowGroup> candidates;
  candidates.reserve(kCandidateGroups);
  for (std::size_t i = 0; i < kCandidateGroups; ++i)
    candidates.push_back(
        pud::sample_group(chip_.layout(), config_.group_size, rng));
  std::size_t pick = 0;
  if (config_.steer && config_.group_size >= 3)
    pick = reliability_.best_group(bank, sa, candidates, 3, kSteerTrials);
  return groups_.emplace(key, candidates[pick]).first->second;
}

verify::ReliabilityPolicy Shard::reliability_policy() const {
  verify::ReliabilityPolicy policy;
  for (const auto& [key, group] : groups_)
    pud::ReliabilityMap::approve_group(policy, chip_.layout(),
                                       chip_.profile().scrambler, key.first,
                                       key.second, group);
  return policy;
}

std::vector<CompiledRequest> Shard::compile_batch(
    std::span<const BatchItem> batch, BatchOutcome& outcome) {
  static const pud::RowGroup kNoGroup{};
  outcome.responses.resize(batch.size());
  outcome.rejected.assign(batch.size(), false);
  std::vector<CompiledRequest> compiled;
  compiled.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i].request;
    // An out-of-range slot gets no group (steering would run trials at
    // that address and throw); validate() then rejects it by name.
    const pud::RowGroup* group = &kNoGroup;
    if (request.op != OpKind::kRowClone &&
        compiler_.validate_slot(request).empty())
      group = &group_for(request.bank, request.sa);
    Response& response = outcome.responses[i];
    response.id = request.id;
    response.shard = index_;
    if (std::string why = compiler_.validate(request, *group); !why.empty()) {
      response.status = Status::kRejected;
      response.error = std::move(why);
      outcome.rejected[i] = true;
      continue;
    }
    compiled.push_back(compiler_.compile(request, *group));
  }
  return compiled;
}

void Shard::finalize_responses(std::span<const BatchItem> batch,
                               std::span<const CompiledRequest> compiled,
                               std::span<const FusedExtent> extents,
                               std::vector<BitVec>& reads, unsigned attempts,
                               std::uint64_t batch_seq,
                               BatchOutcome& outcome) {
  std::size_t next_read = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (outcome.rejected[i]) continue;
    const CompiledRequest& cr = compiled[live];
    const FusedExtent& extent = extents[live];
    Response& response = outcome.responses[i];
    response.status = Status::kOk;
    response.batch = batch_seq;
    response.attempts = attempts;
    response.virtual_ns = extent.end_ns;
    if (cr.reads > 0) {
      response.result = std::move(reads.at(next_read));
      next_read += cr.reads;
    }
    if (outcome.buffer) {
      // The per-request span tree, all on the shard's virtual clock:
      //   req <id>                [routed ............... extent.end)
      //     queue_wait            [routed ........ batch start)
      //     batch_wait            [batch start ... extent.start)
      //     execute               [extent.start .. extent.end)
      // queue_wait covers rounds spent behind earlier batches of this
      // shard; batch_wait covers compile, group profiling, failed
      // attempts, and earlier requests inside the fused program. Perfetto
      // nests the children by timestamp containment on the shard track.
      // One fixed-size record per request (expanded to spans at flush):
      // this runs once per served request, so recording must neither
      // allocate nor fault in more retained pages than it has to.
      const TraceContext& tc = batch[i].trace;
      obs::RequestTrace rt;
      rt.id = response.id;
      rt.batch = batch_seq;
      rt.routed_ns = std::min(tc.routed_clock_ns, extent.start_ns);
      rt.batch_start_ns = outcome.start_clock_ns;
      rt.exec_start_ns = extent.start_ns;
      rt.exec_end_ns = extent.end_ns;
      rt.op = to_string(batch[i].request.op);
      rt.status = "ok";
      rt.tenant = batch[i].request.tenant;
      rt.attempts = attempts;
      rt.reroutes = batch[i].reroutes;
      rt.wait_rounds = tc.wait_rounds;
      rt.commands = static_cast<std::uint32_t>(extent.command_count);
      outcome.buffer->add_request(rt);
    }
    ++live;
  }
}

BatchOutcome Shard::execute(std::span<const BatchItem> batch,
                            std::uint64_t batch_seq,
                            const fault::Resilience& res) {
  BatchOutcome outcome;
  outcome.start_clock_ns = clock_ns();
  const std::string label =
      "serve.s" + std::to_string(index_) + ".b" + std::to_string(batch_seq);
  if (obs::enabled())
    outcome.buffer = std::make_shared<obs::TaskBuffer>(index_ + 1, label,
                                                       obs::ring_capacity());
  // The scope covers compilation too: first-touch group profiling runs
  // real programs on the chip, and their command spans must land in this
  // batch's buffer (sealed in deterministic (shard, batch) order), not in
  // the racy shared harness chunk.
  obs::TaskScope scope(outcome.buffer.get());

  std::vector<CompiledRequest> compiled = compile_batch(batch, outcome);
  if (compiled.empty()) {
    outcome.succeeded = true;
    outcome.end_clock_ns = clock_ns();
    return outcome;
  }

  std::vector<FusedExtent> extents;
  const bender::Program fused = compiler_.fuse(label, compiled, &extents);
  const double compile_end_ns = clock_ns();

  // Slot->request attribution: which command range of the fused program
  // each live request owns. Drives the per-tenant bus accounting, the
  // per-batch attribution event, and finding->request mapping below.
  std::vector<verify::RequestSlice> slices;
  slices.reserve(compiled.size());
  {
    std::size_t live = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (outcome.rejected[i]) continue;
      verify::RequestSlice slice;
      slice.request_id = batch[i].request.id;
      slice.tenant = batch[i].request.tenant;
      slice.first_command = extents[live].first_command;
      slice.command_count = extents[live].command_count;
      slices.push_back(slice);
      ++live;
    }
  }
  for (const verify::RequestOccupancy& ro :
       verify::occupancy_by_request(fused, slices))
    obs::SloRegistry::instance().add_bus_usage(
        ro.slice.tenant, ro.slice.command_count, ro.span_slots);
  if (outcome.buffer) {
    // Compile covers validation, group profiling (which runs real trials
    // on the chip, advancing its clock), and fusion.
    outcome.buffer->add_span(
        {"compile", "serve.batch", outcome.start_clock_ns,
         std::max(compile_end_ns - outcome.start_clock_ns, 0.0),
         {{"batch", std::to_string(batch_seq)},
          {"requests", std::to_string(compiled.size())}}});
    // "id:first:count:tenant" per request, ';'-separated. to_chars keeps
    // it cheap: it runs for every traced batch, inside the serve pass
    // whose tracing cost bench_obs_overhead holds under its budget.
    std::string table;
    table.reserve(slices.size() * 24);
    const auto put = [&table](std::uint64_t value) {
      char digits[20];
      table.append(digits, std::to_chars(digits, digits + 20, value).ptr);
    };
    for (const verify::RequestSlice& slice : slices) {
      if (!table.empty()) table += ';';
      put(slice.request_id);
      table += ':';
      put(slice.first_command);
      table += ':';
      put(slice.command_count);
      table += ':';
      put(slice.tenant);
    }
    outcome.buffer->add_event(
        "serve.batch.slots",
        {{"shard", std::to_string(index_)},
         {"batch", std::to_string(batch_seq)},
         {"commands", std::to_string(fused.commands().size())},
         {"table", std::move(table)}});
  }

  // Cross-check the fused batch's many-row activations against the
  // groups this shard actually profiled (§8.1 steering): any APA outside
  // a recorded set is an unprofiled excursion. Runs once per batch, on
  // the fused program, so the reference (unbatched) path stays pristine.
  if (verify::global_opt_mode() != verify::OptMode::kOff) {
    const verify::ProgramContext ctx = engine_.executor().program_context();
    verify::DataflowResult df = verify::dataflow(fused, ctx);
    if (!df.apas.empty()) {
      const verify::ReliabilityPolicy policy = reliability_policy();
      std::vector<verify::Finding> findings =
          verify::lint_reliability(df.apas, policy, fused.intents());
      obs::MetricsRegistry::instance()
          .counter("serve.batch.reliability_checks")
          .add_count(df.apas.size());
      if (!findings.empty()) {
        obs::MetricsRegistry::instance()
            .counter("serve.batch.reliability_findings")
            .add_count(findings.size());
        verify::report_lint_findings(label, findings);
        // Attribute each finding to the request (and tenant) whose
        // command range covers it, so a reliability excursion inside a
        // fused batch names the request that caused it.
        if (outcome.buffer) {
          for (const verify::Finding& finding : findings) {
            const verify::RequestSlice* slice =
                verify::slice_for_command(slices, finding.command_index);
            if (slice == nullptr) continue;
            outcome.buffer->add_event(
                "serve.lint.request",
                {{"request", std::to_string(slice->request_id)},
                 {"tenant", std::to_string(slice->tenant)},
                 {"command_index", std::to_string(finding.command_index)},
                 {"slot", std::to_string(finding.slot)},
                 {"message", finding.message()}});
          }
        }
      }
    }
  }

  // Where the current attempt began on the shard's virtual clock. The
  // clock does not move between attempts, so the next one begins where a
  // failed one ended.
  double attempt_start = clock_ns();
  fault::run_attempts(
      outcome, res, index_, static_cast<std::uint32_t>(batch_seq), index_,
      [&](unsigned attempt) {
        return "injected shard crash (shard " + std::to_string(index_) +
               ", batch " + std::to_string(batch_seq) + ", attempt " +
               std::to_string(attempt) + ")";
      },
      [&](unsigned, fault::ChipInjector* injector) {
        const auto install = [this](fault::ChipInjector* faults) {
          chip_.install_faults(faults);
          engine_.executor().install_faults(faults);
        };
        if (injector != nullptr) install(injector);
        try {
          auto result = engine_.executor().run(fused);
          // Extents are batch-relative; shift to the shard's virtual clock.
          std::vector<FusedExtent> absolute(extents);
          for (FusedExtent& e : absolute) {
            e.start_ns += attempt_start;
            e.end_ns += attempt_start;
          }
          finalize_responses(batch, compiled, absolute, result.reads,
                             outcome.attempts, batch_seq, outcome);
        } catch (...) {
          if (injector != nullptr) install(nullptr);
          throw;
        }
        if (injector != nullptr) install(nullptr);
      },
      [](unsigned, double) {},
      [&](unsigned attempt, const std::string& error) {
        if (outcome.buffer) {
          outcome.buffer->add_event(
              "serve.batch.attempt_failed",
              {{"shard", std::to_string(index_)},
               {"batch", std::to_string(batch_seq)},
               {"attempt", std::to_string(attempt)},
               {"error", error}});
          // The failed attempt as a span, so a request's retries are
          // visible on the shard track right before its successful
          // execute window.
          obs::RichSpan retry;
          retry.name = "retry " + std::to_string(attempt);
          retry.cat = "serve.batch";
          retry.ts_ns = attempt_start;
          retry.dur_ns = std::max(clock_ns() - attempt_start, 0.0);
          retry.args = {{"batch", std::to_string(batch_seq)},
                        {"error", error}};
          outcome.buffer->add_span(std::move(retry));
        }
        attempt_start = clock_ns();
      });
  outcome.end_clock_ns = clock_ns();
  if (outcome.buffer) {
    outcome.buffer->attempts = outcome.attempts;
    outcome.buffer->succeeded = outcome.succeeded;
    outcome.buffer->error = outcome.error;
  }
  return outcome;
}

BatchOutcome Shard::execute_unbatched(std::span<const BatchItem> batch,
                                      std::uint64_t batch_seq) {
  BatchOutcome outcome;
  outcome.start_clock_ns = clock_ns();
  if (obs::enabled())
    outcome.buffer = std::make_shared<obs::TaskBuffer>(
        index_ + 1,
        "serve.s" + std::to_string(index_) + ".u" + std::to_string(batch_seq),
        obs::ring_capacity());
  // As in execute(): the scope covers compile-time group profiling too.
  obs::TaskScope scope(outcome.buffer.get());
  std::vector<CompiledRequest> compiled = compile_batch(batch, outcome);
  if (compiled.empty()) {
    outcome.succeeded = true;
    outcome.end_clock_ns = clock_ns();
    return outcome;
  }
  std::vector<BitVec> reads;
  std::vector<FusedExtent> extents(compiled.size());
  for (std::size_t k = 0; k < compiled.size(); ++k) {
    extents[k].start_ns = clock_ns();
    for (const bender::Program& segment : compiled[k].segments) {
      auto result = engine_.executor().run(segment);
      for (BitVec& rd : result.reads) reads.push_back(std::move(rd));
    }
    extents[k].end_ns = clock_ns();
  }
  outcome.attempts = 1;
  finalize_responses(batch, compiled, extents, reads, 1, batch_seq, outcome);
  outcome.succeeded = true;
  outcome.end_clock_ns = clock_ns();
  if (outcome.buffer) {
    outcome.buffer->attempts = 1;
    outcome.buffer->succeeded = true;
  }
  return outcome;
}

}  // namespace simra::serve
