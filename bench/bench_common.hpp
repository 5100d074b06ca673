#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "charz/figure.hpp"
#include "charz/plan.hpp"
#include "charz/runner.hpp"
#include "common/env.hpp"
#include "common/prof.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace simra::bench_common {

/// Identity of the plan the environment selects: "paper" (SIMRA_FULL=1),
/// "fleet" (SIMRA_FLEET=1, quick depth at the paper's module census), or
/// "quick". Keys every harness-JSON entry, so measurements of different
/// plans never replace each other.
inline std::string plan_label() {
  if (full_scale_run()) return "paper";
  if (env_flag("SIMRA_FLEET")) return "fleet";
  return "quick";
}

/// Prints the standard bench banner: which plan is in use, how to run
/// the paper-scale version, and the harness thread count. Also stamps the
/// run manifest with the plan identity (plan/seed/instances/trials — not
/// the thread count, which is scheduling-only and must not perturb
/// deterministic artifacts).
inline charz::Plan announced_plan(const std::string& what) {
  const charz::Plan plan = charz::Plan::from_env();
  obs::set_manifest_field("bench", what);
  obs::set_manifest_field("plan", plan_label());
  obs::set_manifest_field("seed", std::to_string(plan.seed));
  obs::set_manifest_field("instances", std::to_string(plan.instance_count()));
  obs::set_manifest_field("trials", std::to_string(plan.trials));
  std::cout << "=== " << what << " ===\n";
  const std::string label = plan_label();
  std::cout << (label == "paper" ? "plan: paper-scale (SIMRA_FULL=1)"
                : label == "fleet"
                    ? "plan: paper-fleet (SIMRA_FLEET=1 — quick depth, "
                      "paper module census)"
                    : "plan: quick (SIMRA_FULL=1 for paper scale, "
                      "SIMRA_FLEET=1 for the paper-fleet census)")
            << " — " << plan.instance_count()
            << " (chip, bank, subarray) instances, " << plan.groups_per_size
            << " row groups per size, " << plan.trials << " trials, "
            << charz::harness_threads()
            << " harness threads (SIMRA_THREADS)\n\n";
  return plan;
}

/// Kebab-case slug of a figure title for CSV file names.
inline std::string title_slug(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      slug.push_back(static_cast<char>(std::tolower(c)));
    else if (!slug.empty() && slug.back() != '-')
      slug.push_back('-');
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug;
}

/// Prints the figure table plus its coverage annotation; when
/// SIMRA_CSV_DIR is set, also writes the series as CSV there (for
/// plotting scripts).
inline void print_figure(const charz::FigureData& figure) {
  std::cout << figure.title << "\n" << figure.to_table().to_text();
  if (figure.coverage.chips_attempted > 0)
    std::cout << "(" << figure.coverage.summary() << ")\n";
  std::cout << "\n";
  if (const char* dir = std::getenv("SIMRA_CSV_DIR")) {
    const std::string path =
        std::string(dir) + "/" + title_slug(figure.title) + ".csv";
    write_file(path, figure.to_table().to_csv());
    std::cout << "(csv written to " << path << ")\n";
  }
}

/// One paper-reported reference value, printed next to our measurement.
inline void compare(const std::string& label, double paper_pct,
                    double measured_fraction) {
  std::cout << label << ": paper " << Table::num(paper_pct, 2)
            << "% — measured " << Table::num(measured_fraction * 100.0, 2)
            << "%\n";
}

/// One timed figure generation, as recorded in BENCH_harness.json.
struct HarnessRecord {
  std::string figure;
  double seconds = 0.0;
  unsigned threads = 1;
  std::size_t instances = 0;
  std::string plan = "quick";
  /// Pre-optimization reference entries carry baseline=true; the marker
  /// is part of the replacement key, so re-measuring never overwrites the
  /// baseline a speedup claim is made against.
  bool baseline = false;
  /// Sweep coverage (resilience accounting); zero chips for analytic
  /// figures that never ran a sweep.
  std::size_t chips_attempted = 0;
  std::size_t chips_succeeded = 0;
  std::size_t chips_quarantined = 0;
  std::uint64_t retries = 0;

  double instances_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(instances) / seconds : 0.0;
  }
};

/// One program's slot accounting before/after the verify v2 optimizer
/// (dead-command elimination + rule-driven slot compaction), as recorded
/// in the harness JSON's "program_opt" section. `slots_*` are extent
/// slots (bus occupancy window, paper Limitation 2); the validator
/// (tools/check_program_opt.py) requires at least one entry with
/// slots_after < slots_before.
struct ProgramOptRecord {
  std::string program;
  std::size_t commands_before = 0;
  std::size_t commands_after = 0;
  std::uint64_t slots_before = 0;
  std::uint64_t slots_after = 0;

  double slots_saved_pct() const {
    return slots_before > 0
               ? 100.0 *
                     static_cast<double>(slots_before - slots_after) /
                     static_cast<double>(slots_before)
               : 0.0;
  }
};

/// One kernel's scalar-vs-AVX2 timing (bench_kernels --simd-report).
struct SimdRecord {
  std::string kernel;
  double scalar_us = 0.0;
  double avx2_us = 0.0;

  double speedup() const { return avx2_us > 0.0 ? scalar_us / avx2_us : 0.0; }
};

/// Path the harness perf trajectory is written to: SIMRA_BENCH_JSON when
/// set, BENCH_harness.json in the working directory otherwise.
inline std::string harness_json_path() {
  const char* path = std::getenv("SIMRA_BENCH_JSON");
  return path != nullptr ? std::string(path) : std::string("BENCH_harness.json");
}

/// Collects per-figure wall-clock records and persists them to the
/// harness JSON after every measurement. Entries written by earlier bench
/// binaries are kept, so one file accumulates the whole suite's perf
/// trajectory; re-measuring a (figure, threads, plan) point replaces its
/// previous entry.
class HarnessReport {
 public:
  static HarnessReport& global() {
    static HarnessReport report;
    return report;
  }

  void record(const std::string& figure, double seconds, std::size_t instances,
              const charz::Coverage* coverage = nullptr) {
    HarnessRecord rec;
    rec.figure = figure;
    rec.seconds = seconds;
    rec.threads = charz::harness_threads();
    rec.instances = instances;
    rec.plan = plan_label();
    if (coverage != nullptr) {
      rec.chips_attempted = coverage->chips_attempted;
      rec.chips_succeeded = coverage->chips_succeeded;
      rec.chips_quarantined = coverage->chips_quarantined;
      rec.retries = coverage->retries;
    }
    records_.push_back(rec);
    write();
    std::cout << "[harness] " << figure << ": " << Table::num(seconds, 3)
              << " s on " << rec.threads << " thread"
              << (rec.threads == 1 ? "" : "s") << ", "
              << Table::num(rec.instances_per_sec(), 2)
              << " instances/s (recorded in " << harness_json_path() << ")\n";
  }

  /// Records the process-wide per-kernel wall-clock totals (simra::prof)
  /// accumulated so far, replacing this (plan, threads) point's previous
  /// kernel entries, plus the gauges/histograms of the obs metrics
  /// registry (the "metrics" section). Call once, after the figure sweeps.
  void record_kernels() {
    kernels_ = prof::snapshot();
    std::erase_if(kernels_,
                  [](const prof::KernelStats& k) { return k.calls == 0; });
    // Event counters published by the resilient harness (retry/quarantine
    // accounting) go to their own JSON section: they count occurrences,
    // not wall-clock time.
    resilience_.clear();
    for (const auto& k : kernels_)
      if (k.name.rfind("resilience/", 0) == 0) resilience_.push_back(k);
    std::erase_if(kernels_, [](const prof::KernelStats& k) {
      return k.name.rfind("resilience/", 0) == 0;
    });
    gauges_ = obs::MetricsRegistry::instance().gauges_snapshot();
    histograms_ = obs::MetricsRegistry::instance().histograms_snapshot();
    std::erase_if(histograms_,
                  [](const obs::HistogramStats& h) { return h.count == 0; });
    if (kernels_.empty() && resilience_.empty() && gauges_.empty() &&
        histograms_.empty())
      return;
    write();
    if (!kernels_.empty()) {
      std::cout << "[harness] kernel timings (" << harness_json_path()
                << "):\n";
      for (const auto& k : kernels_)
        std::cout << "  " << k.name << ": " << k.calls << " calls, "
                  << Table::num(k.seconds, 3) << " s total, "
                  << Table::num(k.micros_per_call(), 2) << " us/call\n";
    }
    if (!resilience_.empty()) {
      std::cout << "[harness] resilience counters (" << harness_json_path()
                << "):\n";
      for (const auto& k : resilience_)
        std::cout << "  " << k.name << ": " << k.calls << "\n";
    }
    if (!gauges_.empty() || !histograms_.empty()) {
      std::cout << "[harness] metrics (" << harness_json_path() << "):\n";
      for (const auto& g : gauges_)
        std::cout << "  " << g.name << ": " << Table::num(g.value, 3) << "\n";
      for (const auto& h : histograms_)
        std::cout << "  " << h.name << ": " << h.count << " observations\n";
    }
  }

  /// Records per-program optimizer accounting (the "program_opt"
  /// section). Replaces this (program, plan) point's previous entry.
  void record_program_opt(const std::vector<ProgramOptRecord>& records) {
    program_opt_ = records;
    if (program_opt_.empty()) return;
    write();
    std::cout << "[harness] program optimization (" << harness_json_path()
              << "):\n";
    for (const auto& p : program_opt_)
      std::cout << "  " << p.program << ": " << p.commands_before << " -> "
                << p.commands_after << " commands, " << p.slots_before
                << " -> " << p.slots_after << " slots ("
                << Table::num(p.slots_saved_pct(), 1) << "% saved)\n";
  }

  /// Records scalar-vs-AVX2 per-kernel timings (the "simd" section),
  /// replacing the section's previous rows. SIMD dispatch is
  /// host-capability dependent, so these entries carry no plan key —
  /// only the thread count the report ran at.
  void record_simd(const std::vector<SimdRecord>& records) {
    simd_ = records;
    if (simd_.empty()) return;
    write();
    std::cout << "[harness] simd speedups (" << harness_json_path() << "):\n";
    for (const auto& s : simd_)
      std::cout << "  " << s.kernel << ": scalar "
                << Table::num(s.scalar_us, 3) << " us, avx2 "
                << Table::num(s.avx2_us, 3) << " us — "
                << Table::num(s.speedup(), 2) << "x\n";
  }

 private:
  static std::string entry_json(const HarnessRecord& r) {
    std::ostringstream os;
    os << "    {\"figure\": \"" << r.figure << "\", \"plan\": \"" << r.plan
       << "\", \"threads\": " << r.threads << ", \"baseline\": "
       << (r.baseline ? "true" : "false") << ", \"seconds\": " << std::fixed
       << std::setprecision(4) << r.seconds << ", \"instances\": "
       << r.instances << ", \"instances_per_sec\": " << std::setprecision(3)
       << r.instances_per_sec() << ", \"chips_attempted\": "
       << r.chips_attempted << ", \"chips_succeeded\": " << r.chips_succeeded
       << ", \"chips_quarantined\": " << r.chips_quarantined
       << ", \"retries\": " << r.retries << "}";
    return os.str();
  }

  std::string kernel_json(const prof::KernelStats& k) const {
    std::ostringstream os;
    os << "    {\"kernel\": \"" << k.name << "\", \"plan\": \"" << plan_label()
       << "\", \"threads\": " << charz::harness_threads()
       << ", \"calls\": " << k.calls << ", \"seconds\": " << std::fixed
       << std::setprecision(4) << k.seconds << ", \"us_per_call\": "
       << std::setprecision(3) << k.micros_per_call() << "}";
    return os.str();
  }

  std::string resilience_json(const prof::KernelStats& k) const {
    std::ostringstream os;
    os << "    {\"counter\": \"" << k.name << "\", \"plan\": \""
       << plan_label() << "\", \"threads\": " << charz::harness_threads()
       << ", \"count\": " << k.calls << "}";
    return os.str();
  }

  std::string program_opt_json(const ProgramOptRecord& p) const {
    std::ostringstream os;
    os << "    {\"program\": \"" << p.program << "\", \"plan\": \""
       << plan_label() << "\", \"commands_before\": " << p.commands_before
       << ", \"commands_after\": " << p.commands_after
       << ", \"slots_before\": " << p.slots_before
       << ", \"slots_after\": " << p.slots_after << ", \"slots_saved_pct\": "
       << std::fixed << std::setprecision(2) << p.slots_saved_pct() << "}";
    return os.str();
  }

  std::string simd_json(const SimdRecord& s) const {
    std::ostringstream os;
    os << "    {\"simd_kernel\": \"" << s.kernel
       << "\", \"threads\": " << charz::harness_threads()
       << ", \"scalar_us\": " << std::fixed << std::setprecision(3)
       << s.scalar_us << ", \"avx2_us\": " << s.avx2_us
       << ", \"speedup\": " << std::setprecision(2) << s.speedup() << "}";
    return os.str();
  }

  std::string metric_prefix(const std::string& name) const {
    std::ostringstream os;
    os << "    {\"metric\": \"" << name << "\", \"plan\": \"" << plan_label()
       << "\", \"threads\": " << charz::harness_threads();
    return os.str();
  }

  std::string gauge_json(const obs::GaugeStats& g) const {
    std::ostringstream os;
    os << metric_prefix(g.name) << ", \"kind\": \"gauge\", \"value\": "
       << std::fixed << std::setprecision(4) << g.value << "}";
    return os.str();
  }

  std::string histogram_json(const obs::HistogramStats& h) const {
    std::ostringstream os;
    os << metric_prefix(h.name) << ", \"kind\": \"histogram\", \"count\": "
       << h.count << ", \"sum\": " << std::fixed << std::setprecision(4)
       << h.sum << ", \"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i)
      os << (i != 0 ? ", " : "") << std::setprecision(4) << h.bounds[i];
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i)
      os << (i != 0 ? ", " : "") << h.counts[i];
    os << "]}";
    return os.str();
  }

  /// Replacement key for an entry line: the prefix before the first
  /// measured field ("figure"/"plan"/"threads"/"baseline" for figures,
  /// "kernel"/"plan"/"threads" for kernels, "counter"/"plan"/"threads"
  /// for resilience counters, "metric"/"plan"/"threads" for metrics,
  /// "program"/"plan" for optimizer accounting). Cut at whichever marker
  /// appears first — figure entries lead with "seconds", kernel entries
  /// with "calls", resilience entries with "count", metric entries with
  /// "kind", program_opt entries with "commands_before". Simd rows need
  /// no key: a simd report replaces its whole section.
  static std::string entry_key(const std::string& line) {
    auto cut = std::string::npos;
    for (const char* marker :
         {", \"seconds\":", ", \"calls\":", ", \"count\":", ", \"kind\":",
          ", \"commands_before\":"}) {
      const auto pos = line.find(marker);
      if (pos != std::string::npos) cut = std::min(cut, pos);
    }
    return cut == std::string::npos ? line : line.substr(0, cut);
  }

  void write() const {
    // Keep entries from other runs that this run has not re-measured.
    std::vector<std::string> figure_lines;
    std::vector<std::string> kernel_lines;
    std::vector<std::string> resilience_lines;
    std::vector<std::string> metric_lines;
    std::vector<std::string> simd_lines;
    std::vector<std::string> program_opt_lines;
    std::ifstream in(harness_json_path());
    for (std::string line; std::getline(in, line);) {
      const bool is_figure = line.find("{\"figure\": \"") != std::string::npos;
      const bool is_kernel = line.find("{\"kernel\": \"") != std::string::npos;
      const bool is_counter =
          line.find("{\"counter\": \"") != std::string::npos;
      const bool is_metric = line.find("{\"metric\": \"") != std::string::npos;
      const bool is_simd =
          line.find("{\"simd_kernel\": \"") != std::string::npos;
      const bool is_program_opt =
          line.find("{\"program\": \"") != std::string::npos;
      if (!is_figure && !is_kernel && !is_counter && !is_metric && !is_simd &&
          !is_program_opt)
        continue;
      if (line.back() == ',') line.pop_back();
      // A simd report times every kernel there is: it replaces the whole
      // section, so a row of a kernel it no longer times goes too.
      if (is_simd && !simd_.empty()) continue;
      bool replaced = false;
      for (const HarnessRecord& r : records_)
        if (entry_key(line) == entry_key(entry_json(r))) replaced = true;
      for (const auto& k : kernels_)
        if (entry_key(line) == entry_key(kernel_json(k))) replaced = true;
      for (const auto& k : resilience_)
        if (entry_key(line) == entry_key(resilience_json(k))) replaced = true;
      for (const auto& g : gauges_)
        if (entry_key(line) == entry_key(gauge_json(g))) replaced = true;
      for (const auto& h : histograms_)
        if (entry_key(line) == entry_key(histogram_json(h))) replaced = true;
      for (const auto& p : program_opt_)
        if (entry_key(line) == entry_key(program_opt_json(p))) replaced = true;
      if (replaced) continue;
      (is_figure        ? figure_lines
       : is_kernel      ? kernel_lines
       : is_metric      ? metric_lines
       : is_simd        ? simd_lines
       : is_program_opt ? program_opt_lines
                        : resilience_lines)
          .push_back(line);
    }
    for (const HarnessRecord& r : records_)
      figure_lines.push_back(entry_json(r));
    for (const auto& k : kernels_) kernel_lines.push_back(kernel_json(k));
    for (const auto& k : resilience_)
      resilience_lines.push_back(resilience_json(k));
    for (const auto& g : gauges_) metric_lines.push_back(gauge_json(g));
    for (const auto& h : histograms_)
      metric_lines.push_back(histogram_json(h));
    for (const auto& s : simd_) simd_lines.push_back(simd_json(s));
    for (const auto& p : program_opt_)
      program_opt_lines.push_back(program_opt_json(p));

    const auto append_array = [](std::string& out,
                                 const std::vector<std::string>& lines) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        out += lines[i];
        if (i + 1 < lines.size()) out += ",";
        out += "\n";
      }
    };
    std::string out = "{\n  \"schema\": 7,\n  \"figures\": [\n";
    append_array(out, figure_lines);
    out += "  ],\n  \"kernels\": [\n";
    append_array(out, kernel_lines);
    out += "  ],\n  \"resilience\": [\n";
    append_array(out, resilience_lines);
    out += "  ],\n  \"metrics\": [\n";
    append_array(out, metric_lines);
    out += "  ],\n  \"simd\": [\n";
    append_array(out, simd_lines);
    out += "  ],\n  \"program_opt\": [\n";
    append_array(out, program_opt_lines);
    out += "  ]\n}\n";
    write_file(harness_json_path(), out);
  }

  std::vector<HarnessRecord> records_;
  std::vector<prof::KernelStats> kernels_;
  std::vector<prof::KernelStats> resilience_;
  std::vector<obs::GaugeStats> gauges_;
  std::vector<obs::HistogramStats> histograms_;
  std::vector<SimdRecord> simd_;
  std::vector<ProgramOptRecord> program_opt_;
};

/// Runs `fn(plan)`, records its wall-clock time, thread count, instance
/// throughput, and — when the result carries one — sweep coverage in the
/// harness report, and returns its result.
template <typename Fn>
auto timed_figure(const charz::Plan& plan, const std::string& name, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  auto result = fn(plan);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const charz::Coverage* coverage = nullptr;
  if constexpr (requires { result.coverage; }) coverage = &result.coverage;
  HarnessReport::global().record(name, seconds, plan.instance_count(),
                                 coverage);
  return result;
}

}  // namespace simra::bench_common
