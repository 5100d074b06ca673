// Overhead guardrail for the observability layer: runs the same quick
// fig3 sweep with tracing off and on (test override, so no artifact
// files), then a deterministic serving loop the same way, records the
// measured overheads as gauges in BENCH_harness.json, and fails when
// either exceeds the budget (SIMRA_OVERHEAD_MAX percent, default 5).
// Each repetition times both sides back to back, alternating which runs
// first, and the gate reads the median of the per-repetition on/off
// ratios, so host drift over the run cancels inside each ratio instead
// of landing on whichever side was timed later.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "charz/figures.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace {

double timed_fig3_seconds(const simra::charz::Plan& plan) {
  const auto start = std::chrono::steady_clock::now();
  (void)simra::charz::fig3_smra_timing(plan);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One deterministic serving pass (single-threaded submit, synchronous
/// pumping) — the same code path bench_serve --deterministic exercises,
/// sized to finish in well under a second so the off/on pair is cheap to
/// repeat.
double timed_serve_seconds(std::size_t ops) {
  using namespace simra::serve;
  ServiceConfig config;
  config.shards = 3;
  config.max_batch = 8;
  config.queue_capacity = 512;
  config.max_in_flight = 512;
  config.tenant_quota = 512;
  config.seed = 0xd07;
  Service service{config};
  WorkloadSpec spec;
  spec.columns = service.config().profiles.front().geometry.columns;
  // Seeded operands and read-back make each request carry its full
  // electrical simulation cost, so the fixed per-request tracing cost is
  // measured against representative work, not empty programs.
  spec.rows = 32;
  spec.seed_sources = true;
  spec.read_back = true;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<Ticket>> tickets;
  tickets.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    tickets.push_back(std::make_unique<Ticket>());
    (void)service.submit(make_request(spec, i), tickets.back().get());
    if ((i + 1) % 64 == 0) service.drain();
  }
  service.drain();
  for (auto& ticket : tickets) (void)ticket->wait();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// One check's measurement: each side's median seconds, and the median
/// per-repetition overhead in percent.
struct Overhead {
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  double pct = 0.0;
};

/// Times `run` untraced and traced in each of `reps` (odd) repetitions;
/// odd repetitions run the traced side first. The log is reset after
/// every traced run so each one measures the steady-state recording
/// cost: a long-running service flushes and recycles its trace memory,
/// so retained pages get reused. Without the reset every traced run
/// first-touches fresh pages for data it retains until flush, and the
/// page-commit cost — proportional to artifact size, not request rate —
/// dominates the measurement.
template <typename Fn>
Overhead paired_overhead(int reps, Fn&& run) {
  std::vector<double> off, on, ratio;
  for (int r = 0; r < reps; ++r) {
    double seconds[2] = {0.0, 0.0};  // [untraced, traced]
    for (const bool traced : {r % 2 == 1, r % 2 == 0}) {
      simra::obs::set_enabled_for_test(traced);
      seconds[traced ? 1 : 0] = run();
      if (traced) simra::obs::reset_log();
    }
    off.push_back(seconds[0]);
    on.push_back(seconds[1]);
    ratio.push_back(seconds[0] > 0.0 ? seconds[1] / seconds[0] : 1.0);
  }
  return {median(off), median(on), (median(ratio) - 1.0) * 100.0};
}

}  // namespace

int main() {
  using namespace simra;
  const charz::Plan plan = bench_common::announced_plan(
      "Observability overhead guardrail (fig3 + serve, obs off vs on)");
  const std::string budget_text = env_string("SIMRA_OVERHEAD_MAX", "5.0");
  const double budget_pct = std::strtod(budget_text.c_str(), nullptr);
  const std::size_t serve_ops = static_cast<std::size_t>(
      env_int("SIMRA_SERVE_OVERHEAD_OPS", 512));

  // Warm-up pass so one-time initialization (calibration tables, counter
  // registration) is attributed to neither side.
  obs::set_enabled_for_test(false);
  (void)timed_fig3_seconds(plan);
  (void)timed_serve_seconds(serve_ops);

  // The fig3 sweep, then the serving path: the full request-scoped
  // pipeline (span trees, SLO histograms, slot attribution) against the
  // identical pipeline with obs switched off at runtime. A serve pass
  // takes a few milliseconds, so it gets more repetitions than the sweep.
  obs::reset_log();
  const Overhead fig3 =
      paired_overhead(21, [&] { return timed_fig3_seconds(plan); });
  const Overhead serve =
      paired_overhead(61, [&] { return timed_serve_seconds(serve_ops); });
  obs::set_enabled_for_test(std::nullopt);
  obs::reset_log();

  obs::MetricsRegistry::instance().gauge("obs/overhead_pct").set(fig3.pct);
  obs::MetricsRegistry::instance()
      .gauge("obs/serve_overhead_pct")
      .set(serve.pct);
  auto& report = bench_common::HarnessReport::global();
  report.record("obs_overhead_off", fig3.off_seconds, plan.instance_count());
  report.record("obs_overhead_on", fig3.on_seconds, plan.instance_count());
  report.record("obs_serve_overhead_off", serve.off_seconds, serve_ops);
  report.record("obs_serve_overhead_on", serve.on_seconds, serve_ops);
  report.record_kernels();

  std::cout << "obs off: " << Table::num(fig3.off_seconds, 3)
            << " s, obs on: " << Table::num(fig3.on_seconds, 3)
            << " s, overhead " << Table::num(fig3.pct, 2) << "% (budget "
            << Table::num(budget_pct, 1) << "%)\n";
  std::cout << "serve off: " << Table::num(serve.off_seconds, 3)
            << " s, serve on: " << Table::num(serve.on_seconds, 3)
            << " s, overhead " << Table::num(serve.pct, 2) << "% (budget "
            << Table::num(budget_pct, 1) << "%)\n";
  bool failed = false;
  if (fig3.pct > budget_pct) {
    std::cout << "FAIL: tracing overhead exceeds the budget\n";
    failed = true;
  }
  if (serve.pct > budget_pct) {
    std::cout << "FAIL: serve-path tracing overhead exceeds the budget\n";
    failed = true;
  }
  if (failed) return 1;
  std::cout << "PASS\n";
  return 0;
}
