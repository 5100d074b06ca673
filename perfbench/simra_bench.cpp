// simra_bench: runs one benchmark workload in this process and writes its
// measurements as one JSON object for run_benchmark.py.
//
//   simra_bench --workload NAME --out FILE [--seed N] [--seconds S]
//               [--trace FILE] [--smoke] [--setup-only]
//
// Figure workloads time charz figure sweeps. Serve workloads drive
// serve::Service with an open-loop Poisson generator running on this
// thread. The benchmark measures every layer from outside: it calls only
// the programs' public functions and reads only counters they already
// keep (prof::snapshot, obs::MetricsRegistry, ServeStats).
//
// Every workload reports the same end-to-end metric names. A figure sweep
// of one chip is the light-load operation and a sweep of the whole plan
// the loaded one; a serve request at the low and at the high fixed rate
// plays the same two roles.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "charz/figures.hpp"
#include "charz/plan.hpp"
#include "charz/runner.hpp"
#include "common/prof.hpp"
#include "common/rng.hpp"
#include "dram/electrical.hpp"
#include "dram/kernels.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace {

using namespace simra;
using Clock = std::chrono::steady_clock;

// Initialised during static initialisation: the earliest moment this
// process can observe, used as "process start" for figure set-up time.
const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  /// One 64-bit word as a single FNV-1a step.
  void word(std::uint64_t value) {
    hash_ ^= value;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Result document

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload process reports. `end_to_end` and `per_layer`
/// carry the BENCHMARK.json metric names; `detail` carries the finer,
/// kind-specific numbers the runner prints and records alongside them.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> checks;  // name -> JSON.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok ? "true" : "false");
  }
  void check(const std::string& name, const std::string& text) {
    checks.emplace_back(name, json_string(text));
  }

  std::string render(const std::string& workload, const std::string& kind,
                     std::uint64_t seed, double seconds, bool traced,
                     bool smoke) const {
    const auto metrics = [](const std::vector<Metric>& list) {
      std::string out = "{";
      for (std::size_t i = 0; i < list.size(); ++i)
        out += (i ? ", " : "") + json_string(list[i].name) +
               ": {\"value\": " + json_number(list[i].value) +
               ", \"unit\": " + json_string(list[i].unit) + "}";
      return out + "}";
    };
    std::string out = "{\"workload\": " + json_string(workload) +
                      ", \"kind\": " + json_string(kind) +
                      ", \"seed\": " + std::to_string(seed) +
                      ", \"seconds\": " + json_number(seconds) +
                      ", \"trace\": " + (traced ? "true" : "false") +
                      ", \"smoke\": " + (smoke ? "true" : "false") +
                      ", \"simd\": " +
                      json_string(dram::kernels::simd_name(
                          dram::kernels::active_simd())) +
                      ", \"build_type\": " +
                      json_string(SIMRA_BENCH_BUILD_TYPE) +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ",\n \"end_to_end\": " + metrics(end_to_end) +
                      ",\n \"per_layer\": " + metrics(per_layer) +
                      ",\n \"detail\": " + metrics(detail) +
                      ",\n \"checks\": {";
    for (std::size_t i = 0; i < checks.size(); ++i)
      out += (i ? ", " : "") + json_string(checks[i].first) + ": " +
             checks[i].second;
    return out + "}}\n";
  }
};

// ---------------------------------------------------------------------------
// Chrome-trace spans, kept in memory and written once at exit.

class TraceLog {
 public:
  explicit TraceLog(Clock::time_point origin) : origin_(origin) {}

  /// Records one span and returns its id (ids start at 1; 0 = no parent).
  std::uint64_t span(std::string name, int tid, Clock::time_point begin,
                     Clock::time_point end, std::uint64_t parent = 0,
                     std::uint64_t request = 0) {
    spans_.push_back({std::move(name), tid, begin, end, spans_.size() + 1,
                      parent, request});
    return spans_.size();
  }

  void name_thread(int tid, std::string name) {
    threads_.emplace_back(tid, std::move(name));
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    bool first = true;
    for (const auto& [tid, name] : threads_) {
      out << (first ? "" : ",\n")
          << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
             "\"tid\": "
          << tid << ", \"args\": {\"name\": " << json_string(name) << "}}";
      first = false;
    }
    for (const Span& s : spans_) {
      out << (first ? "" : ",\n") << "{\"ph\": \"X\", \"name\": "
          << json_string(s.name) << ", \"pid\": 1, \"tid\": " << s.tid
          << ", \"ts\": " << json_number(micros(s.begin))
          << ", \"dur\": " << json_number(micros(s.end) - micros(s.begin))
          << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent;
      if (s.request != 0) out << ", \"request\": " << s.request;
      out << "}}";
      first = false;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  struct Span {
    std::string name;
    int tid;
    Clock::time_point begin, end;
    std::uint64_t id, parent, request;
  };
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::pair<int, std::string>> threads_;
};

// ---------------------------------------------------------------------------
// Electrical-model timers (prof counters kept by the dram layer).

/// The timers Bank calls directly; they never nest in one another.
const char* const kTopLevelKernels[] = {
    "write_overdrive_mask", "copy_stable_mask", "resolve_charge_share",
    "sense_frac_row",       "latched_mask",     "estimate_pattern_noise"};
/// Timers nested inside the top-level ones (threshold-mask cache misses
/// and deviate-cache misses).
const char* const kNestedKernels[] = {"threshold_mask_compute",
                                      "deviates_miss"};

struct ProfSnapshot {
  std::map<std::string, prof::KernelStats> by_name;

  static ProfSnapshot take() {
    ProfSnapshot s;
    for (prof::KernelStats& k : prof::snapshot()) s.by_name[k.name] = k;
    return s;
  }
};

struct KernelDelta {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// One electrical timer's growth between two snapshots.
KernelDelta kernel_delta(const ProfSnapshot& before, const ProfSnapshot& after,
                         const std::string& kernel) {
  const std::string name = "electrical/" + kernel;
  KernelDelta d;
  const auto a = after.by_name.find(name);
  if (a == after.by_name.end()) return d;
  d.seconds = a->second.seconds;
  d.calls = a->second.calls;
  if (const auto b = before.by_name.find(name); b != before.by_name.end()) {
    d.seconds -= b->second.seconds;
    d.calls -= b->second.calls;
  }
  return d;
}

double electrical_seconds(const ProfSnapshot& before,
                          const ProfSnapshot& after) {
  double total = 0.0;
  for (const char* k : kTopLevelKernels)
    total += kernel_delta(before, after, k).seconds;
  return total;
}

/// The per-layer metrics every workload reports (BENCHMARK.json
/// "per_layer"), computed from one single-threaded bracket of work (the
/// serial figure sweep, or the serve replay) and its parallel counterpart.
/// `serial_s` and `attributed_s` (time in timed calls outside the
/// electrical kernels) cover the whole bracket of `ops` operations;
/// `parallel_electrical_per_op` is kernel time per operation when the
/// same work runs in parallel.
void common_layers(Report& report, const ProfSnapshot& before,
                   const ProfSnapshot& after, double serial_s, double ops,
                   double attributed_s, double parallel_efficiency,
                   double parallel_electrical_per_op) {
  const double electrical_s = electrical_seconds(before, after);
  const auto delta = [&](const char* k) {
    return kernel_delta(before, after, k);
  };
  std::vector<Metric>& out = report.per_layer;
  out.push_back({"sched.parallel_efficiency", parallel_efficiency, "ratio"});
  out.push_back({"sched.parallel_inflation",
                 ratio(parallel_electrical_per_op, electrical_s / ops),
                 "ratio"});
  out.push_back({"host.serial_ms_per_op", serial_s * 1e3 / ops, "ms"});
  out.push_back({"host.unattributed_share",
                 ratio(serial_s - attributed_s - electrical_s, serial_s),
                 "ratio"});
  out.push_back(
      {"dram.electrical_share", ratio(electrical_s, serial_s), "ratio"});
  out.push_back({"dram.electrical_ms_per_op", electrical_s * 1e3 / ops, "ms"});
  // The kernels every workload calls (the others are idle on some).
  for (const char* k :
       {"resolve_charge_share", "estimate_pattern_noise", "deviates_miss"})
    out.push_back({std::string("dram.") + k + "_ms_per_op",
                   delta(k).seconds * 1e3 / ops, "ms"});
  out.push_back({"dram.deviates_miss_per_op",
                 static_cast<double>(delta("deviates_miss").calls) / ops,
                 "count"});

  // Every electrical timer, as the detail the per-layer list summarises.
  const auto timer_detail = [&](const char* k) {
    const KernelDelta d = delta(k);
    report.detail.push_back(
        {std::string("dram.electrical.") + k + "_s", d.seconds, "s"});
    report.detail.push_back({std::string("dram.electrical.") + k + "_calls",
                             static_cast<double>(d.calls), "count"});
  };
  for (const char* k : kTopLevelKernels) timer_detail(k);
  for (const char* k : kNestedKernels) timer_detail(k);
  report.detail.push_back({"dram.electrical.total_s", electrical_s, "s"});
  // Both mask callers end in the cached threshold-mask lookup.
  const double lookups = static_cast<double>(
      delta("write_overdrive_mask").calls + delta("copy_stable_mask").calls);
  if (lookups > 0.0)
    report.detail.push_back(
        {"dram.threshold_cache_hit_ratio",
         1.0 - static_cast<double>(delta("threshold_mask_compute").calls) /
                   lookups,
         "ratio"});
}

// ---------------------------------------------------------------------------
// Figure workloads

struct FigureWorkload {
  const char* name;
  charz::Plan (*plan)();
  charz::FigureData (*figure)(const charz::Plan&);
  /// Distinct plans a run sweeps in turn, each drawn from the seed. The
  /// cost of one plan depends on its chips (±15 % between seeds on the
  /// fleet census), so a run's median over several draws varies less
  /// from seed to seed. Each plan is still swept at least twice in a run.
  std::size_t plans;
};

/// The paper-fleet census (18 modules over five vendor profiles) at two
/// chips per module instead of seven: 36 chips, 72 slots, enough to keep
/// four workers fed at a third of the sweep time, so a run holds a
/// median of many sweeps.
charz::Plan fleet_census() {
  charz::Plan plan = charz::Plan::paper_fleet();
  plan.chips_per_module = 2;
  return plan;
}

const FigureWorkload kFigureWorkloads[] = {
    {"fig3_fleet", fleet_census, charz::fig3_smra_timing, 4},
    {"fig7_quick", charz::Plan::quick, charz::fig7_majx_datapattern, 16},
};

struct Sweep {
  std::size_t plan = 0;  ///< index into the run's plans.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t table_hash = 0;
  charz::Coverage coverage;
};

Sweep timed_sweep(const FigureWorkload& w,
                  const std::vector<charz::Plan>& plans, std::size_t index) {
  const charz::Plan& plan = plans[index];
  Sweep s;
  s.plan = index;
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto t0 = Clock::now();
  const charz::FigureData figure = w.figure(plan);
  s.wall_s = seconds_between(t0, Clock::now());
  s.cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  const std::string text = figure.to_table().to_text();
  Fnv1a h;
  h.bytes(text.data(), text.size());
  s.table_hash = h.value();
  s.coverage = figure.coverage;
  return s;
}

/// The workload's plans for one seed: the base plan drawn `count` times.
std::vector<charz::Plan> seeded_plans(const charz::Plan& base,
                                      std::uint64_t seed, std::size_t count) {
  std::vector<charz::Plan> plans;
  for (std::size_t k = 0; k < count; ++k) {
    charz::Plan plan = base;
    plan.seed = hash_combine(seed, k);
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Distinct chips of each vendor profile the light-load operation cycles
/// through, so that its median does not hang on a few chips.
constexpr std::size_t kLightChipsPerProfile = 8;

/// One-chip plans at the plan's depth, taking the plan's vendor profiles
/// in turn, each chip with its own seed.
std::vector<charz::Plan> light_chips(const charz::Plan& plan,
                                     std::uint64_t seed) {
  const std::size_t profiles = plan.modules.size();
  std::vector<charz::Plan> chips = seeded_plans(
      plan, hash_combine(seed, 0x1c), kLightChipsPerProfile * profiles);
  for (std::size_t k = 0; k < chips.size(); ++k) {
    chips[k].modules = {{plan.modules[k % profiles].profile, 1}};
    chips[k].chips_per_module = 1;
  }
  return chips;
}

/// True when every sweep of a plan rendered the same table.
bool tables_stable(const std::vector<Sweep>& sweeps) {
  std::map<std::size_t, std::uint64_t> first;
  for (const Sweep& s : sweeps)
    if (first.emplace(s.plan, s.table_hash).first->second != s.table_hash)
      return false;
  return true;
}

void set_workers(unsigned workers) {
  setenv("SIMRA_THREADS", std::to_string(workers).c_str(), 1);
}

struct Options {
  std::string workload;
  std::string out;
  std::string trace;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  bool setup_only = false;
};

/// Runs the figure workload and fills `report`. Every sweep of one plan
/// must render the same table, whatever the worker count.
void run_figure(const FigureWorkload& w, const Options& opt, Report& r) {
  const charz::Plan base = opt.smoke ? charz::Plan::quick() : w.plan();
  const std::vector<charz::Plan> plans = seeded_plans(base, opt.seed, w.plans);
  const std::vector<charz::Plan> chips = light_chips(base, opt.seed);
  const unsigned workers = charz::harness_threads();

  // Set-up ends with the first chip characterised from a cold process.
  std::vector<Sweep> chip_sweeps{timed_sweep(w, chips, 0)};
  const double setup_s = seconds_between(g_process_start, Clock::now());
  if (opt.setup_only) {
    r.end_to_end.push_back({"setup_s", setup_s, "s"});
    return;
  }

  std::vector<Sweep> sweeps;
  if (opt.trace.empty()) {
    // Loaded sweeps of the plans in turn, each followed by light-load
    // one-chip sweeps for a quarter of its time, until the budget is
    // spent: both samples span the run, so host drift hits both alike.
    const std::size_t min_sweeps = opt.smoke ? 1 : 2 * plans.size();
    const auto start = Clock::now();
    do {
      sweeps.push_back(timed_sweep(w, plans, sweeps.size() % plans.size()));
      const auto light_start = Clock::now();
      do {
        chip_sweeps.push_back(
            timed_sweep(w, chips, chip_sweeps.size() % chips.size()));
      } while (seconds_between(light_start, Clock::now()) <
               0.25 * sweeps.back().wall_s);
    } while (sweeps.size() < min_sweeps ||
             (!opt.smoke &&
              seconds_between(start, Clock::now()) < opt.seconds));

    // A one-chip sweep of some profiles takes twice as long as of others,
    // so the light-load time is the mean over profiles of each profile's
    // median: a median over all chips would sit between the two groups and
    // move with how many sweeps of each fit in the run.
    const std::size_t profiles = base.modules.size();
    std::vector<std::vector<double>> by_profile(profiles);
    for (const Sweep& s : chip_sweeps)
      by_profile[s.plan % profiles].push_back(s.wall_s);
    double chip_s = 0.0;
    for (const std::vector<double>& times : by_profile)
      chip_s += quantile(times, 0.5) / static_cast<double>(profiles);
    std::vector<double> chip_wall, wall, cpu;
    for (const Sweep& s : chip_sweeps) chip_wall.push_back(s.wall_s);
    for (const Sweep& s : sweeps) {
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
    }
    const double figure_s = quantile(wall, 0.5);
    r.end_to_end = {
        {"low.p50_ms", chip_s * 1e3, "ms"},
        {"high.p50_ms", figure_s * 1e3, "ms"},
        {"high.cpu_ms_per_op", quantile(cpu, 0.5) * 1e3, "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    r.detail = {
        {"figure_s", figure_s, "s"},
        {"figure_cpu_s", quantile(cpu, 0.5), "s"},
        {"figure_p90_s", quantile(wall, 0.9), "s"},
        {"instances_per_s",
         static_cast<double>(base.instance_count()) / figure_s, "1/s"},
        {"chip_sweep_s", chip_s, "s"},
        {"chip_sweep_p90_s", quantile(chip_wall, 0.9), "s"},
        {"sweeps", static_cast<double>(sweeps.size()), "count"},
        {"chip_sweeps", static_cast<double>(chip_sweeps.size()), "count"},
        {"instances", static_cast<double>(base.instance_count()), "count"},
        {"workers", static_cast<double>(workers), "count"},
    };
  } else {
    // Traced: sweeps at one worker for two thirds of the budget, then at
    // the configured count for the rest, each phase bracketed by counter
    // snapshots.
    const auto obs_counter = [](const char* name) {
      for (const prof::KernelStats& k :
           obs::MetricsRegistry::instance().counters_snapshot())
        if (k.name == name) return static_cast<double>(k.calls);
      return 0.0;
    };
    const auto worker_tasks = [] {
      for (const obs::HistogramStats& h :
           obs::MetricsRegistry::instance().histograms_snapshot())
        if (h.name == "charz/worker_tasks") return h;
      return obs::HistogramStats{};
    };
    TraceLog trace(g_process_start);
    trace.name_thread(1, "benchmark");
    const auto start = Clock::now();
    const auto sweep_until = [&](unsigned n_workers, double fraction) {
      set_workers(n_workers);
      std::vector<double> wall;
      do {
        const auto t0 = Clock::now();
        sweeps.push_back(timed_sweep(w, plans, 0));
        trace.span("sweep workers=" + std::to_string(n_workers), 1, t0,
                   Clock::now());
        wall.push_back(sweeps.back().wall_s);
      } while (!opt.smoke && seconds_between(start, Clock::now()) <
                                 opt.seconds * fraction);
      return wall;
    };
    const ProfSnapshot s0 = ProfSnapshot::take();
    const std::vector<double> serial = sweep_until(1, 2.0 / 3.0);
    const ProfSnapshot s1 = ProfSnapshot::take();
    const double steals0 = obs_counter("charz/steals");
    const obs::HistogramStats load0 = worker_tasks();
    const std::vector<double> parallel = sweep_until(workers, 1.0);
    const ProfSnapshot s2 = ProfSnapshot::take();
    const obs::HistogramStats load1 = worker_tasks();
    const double load_sum = load1.sum - load0.sum;
    const double load_count = static_cast<double>(load1.count - load0.count);
    // Busiest worker, to the histogram's bucket resolution (upper edge).
    double load_max = 0.0;
    for (std::size_t b = 0; b < load1.counts.size(); ++b) {
      const std::uint64_t before =
          b < load0.counts.size() ? load0.counts[b] : 0;
      if (load1.counts[b] > before)
        load_max = b < load1.bounds.size() ? load1.bounds[b] : load_sum;
    }
    double used_workers = workers;
    for (const obs::GaugeStats& g :
         obs::MetricsRegistry::instance().gauges_snapshot())
      if (g.name == "charz/workers") used_workers = g.value;

    const double sweeps_1 = static_cast<double>(serial.size());
    const double sweeps_n = static_cast<double>(parallel.size());
    const double serial_s = quantile(serial, 0.5);
    const double parallel_s = quantile(parallel, 0.5);
    const double efficiency = serial_s / (parallel_s * used_workers);
    double serial_total_s = 0.0;
    for (double t : serial) serial_total_s += t;
    const double parallel_electrical_per_op =
        electrical_seconds(s1, s2) / sweeps_n;
    common_layers(r, s0, s1, serial_total_s, sweeps_1, 0.0, efficiency,
                  parallel_electrical_per_op);
    r.detail.insert(
        r.detail.begin(),
        {{"charz.serial_s", serial_s, "s"},
         {"charz.parallel_s", parallel_s, "s"},
         {"charz.parallel_efficiency", efficiency, "ratio"},
         {"charz.steals", (obs_counter("charz/steals") - steals0) / sweeps_n,
          "count"},
         {"charz.worker_load_max_over_mean",
          ratio(load_max, ratio(load_sum, load_count)), "ratio"},
         {"charz.unattributed_s",
          (serial_total_s - electrical_seconds(s0, s1)) / sweeps_1, "s"},
         {"dram.span_pool_recycle_rate",
          dram::span_pool_stats().recycle_rate(), "ratio"},
         {"dram.electrical.parallel_inflation",
          ratio(parallel_electrical_per_op,
                electrical_seconds(s0, s1) / sweeps_1),
          "ratio"},
         {"charz.serial_sweeps", sweeps_1, "count"},
         {"charz.parallel_sweeps", sweeps_n, "count"}});
    trace.write(opt.trace);
  }

  // Correctness: every sweep of one plan renders the same table.
  const bool stable = tables_stable(sweeps) && tables_stable(chip_sweeps);
  for (const std::vector<Sweep>* list : {&sweeps, &chip_sweeps})
    for (const Sweep& s : *list) {
      r.attempted += s.coverage.chips_attempted;
      r.failed += s.coverage.chips_quarantined;
    }
  r.check("table_hash", hex(sweeps.front().table_hash));
  r.check("table_hash_stable", stable);
}

// ---------------------------------------------------------------------------
// Serve workloads

struct ServeWorkload {
  const char* name;
  const char* mix;
  bool seed_sources;
  bool read_back;
  double low_rps;
  double high_rps;  ///< also where the max-rate search starts.
};

const ServeWorkload kServeWorkloads[] = {
    {"serve_copy", "rowclone:90,init:4,copy:4,majx:2", false, false, 10000,
     60000},
    {"serve_majx", "rowclone:10,init:10,copy:10,majx:70", true, true, 3000,
     12000},
};

/// p90 latency limit of the max-rate search.
constexpr double kLatencyLimitUs = 1000.0;
/// Requests per drain() in the synchronous replay (below queue capacity).
constexpr std::size_t kReplayChunk = 256;
/// Spans of each kind (request, round, replayed batch) a traced run keeps:
/// the first ones of the run, which bounds the trace file to a few MB.
constexpr std::size_t kMaxSpansPerKind = 4000;

/// The default fleet with deeper admission caps: a host stall of up to
/// about 100 ms at a high rate then queues requests instead of refusing
/// them, so no operation of a fixed-rate step fails.
serve::ServiceConfig service_config() {
  serve::ServiceConfig config;
  config.queue_capacity = 16384;
  config.max_in_flight = 32768;
  config.tenant_quota = 16384;
  return config;
}

serve::WorkloadSpec workload_spec(const ServeWorkload& w,
                                  const serve::ServiceConfig& config,
                                  std::uint64_t seed) {
  serve::WorkloadSpec spec;
  serve::apply_mix(spec, w.mix);
  spec.seed_sources = w.seed_sources;
  spec.read_back = w.read_back;
  spec.seed = seed;
  spec.columns = config.profiles.empty()
                     ? dram::VendorProfile::hynix_m().geometry.columns
                     : config.profiles.front().geometry.columns;
  return spec;
}

/// Profiles every (bank, subarray) slot the request stream can reach on
/// every shard; returns the slot count.
std::size_t warm_all(serve::Service& service, const serve::WorkloadSpec& spec) {
  std::size_t slots = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s)
    for (unsigned b = 0; b < spec.banks; ++b)
      for (unsigned sa = 0; sa < spec.subarrays; ++sa, ++slots)
        service.shard(s).warm(static_cast<dram::BankId>(b),
                              static_cast<dram::SubarrayId>(sa));
  return slots;
}

/// FNV-1a over 64-bit words of (id, status, result words): a word at a
/// time keeps hashing a 1 KiB row cheap on the generator thread.
std::uint64_t response_hash(const serve::Response& response) {
  Fnv1a h;
  h.word(response.id);
  h.word(static_cast<std::uint64_t>(response.status));
  for (std::uint64_t word : response.result.words()) h.word(word);
  return h.value();
}

std::uint64_t fold(const std::vector<std::uint64_t>& hashes) {
  Fnv1a h;
  for (std::uint64_t v : hashes) h.word(v);
  return h.value();
}

/// One fixed-rate open-loop step (or one probe of the max-rate search).
struct Step {
  std::vector<double> latency_us;  ///< due time -> response observed.
  std::vector<double> late_us;     ///< due time -> submit called.
  std::vector<double> submit_us;   ///< duration of Service::submit.
  std::vector<double> due_ns, submitted_ns, done_ns;  ///< from step start.
  std::vector<std::uint64_t> hashes;  ///< per request, in stream order.
  std::uint64_t rejected = 0;  ///< refused at submit.
  std::uint64_t not_ok = 0;    ///< delivered expired / failed / invalid.
  double elapsed_s = 0.0;      ///< step start -> last response.
  double service_cpu_s = 0.0;  ///< process CPU minus this thread's CPU.
  Clock::time_point start;

  std::size_t size() const { return latency_us.size(); }
  /// Achieved over offered rate: how far completion lagged the schedule.
  double achieved_ratio() const {
    return due_ns.empty() ? 0.0 : ratio(due_ns.back() * 1e-9, elapsed_s);
  }
  bool meets_limit() const {
    return rejected == 0 && not_ok == 0 &&
           quantile(latency_us, 0.9) <= kLatencyLimitUs &&
           achieved_ratio() >= 0.98;
  }
};

/// Sends `rate * duration` requests, stream indices from `first_index`, on
/// a Poisson schedule drawn from (`seed`, `first_index`), from this thread,
/// polling tickets between sends. The requests and the schedule are
/// generated before the clock starts.
Step run_step(serve::Service& service, const serve::WorkloadSpec& spec,
              std::uint64_t first_index, double rate, double duration_s,
              std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * duration_s)));
  Step step;
  std::vector<serve::Request> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    requests.push_back(serve::make_request(spec, first_index + i));
  Rng arrivals(hash_combine(seed, first_index));
  step.due_ns.resize(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - arrivals.uniform()) / rate * 1e9;
    step.due_ns[i] = t;
  }
  const auto tickets = std::make_unique<serve::Ticket[]>(n);
  step.latency_us.assign(n, 0.0);
  step.late_us.assign(n, 0.0);
  step.submit_us.assign(n, 0.0);
  step.submitted_ns.assign(n, 0.0);
  step.done_ns.assign(n, 0.0);
  step.hashes.assign(n, 0);
  std::vector<std::size_t> outstanding;
  outstanding.reserve(n);

  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double gen_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  step.start = Clock::now();
  const auto since_start = [&step] {
    return std::chrono::duration<double, std::nano>(Clock::now() - step.start)
        .count();
  };
  std::size_t next = 0;
  while (next < n || !outstanding.empty()) {
    // Send everything due, then collect answers until the next send is
    // due: sending first keeps the generator's own lateness small.
    double now = since_start();
    while (next < n && step.due_ns[next] <= now) {
      const bool admitted =
          service.submit(std::move(requests[next]), &tickets[next]);
      const double returned = since_start();
      step.late_us[next] = (now - step.due_ns[next]) * 1e-3;
      step.submit_us[next] = (returned - now) * 1e-3;
      step.submitted_ns[next] = returned;
      if (!admitted) ++step.rejected;
      outstanding.push_back(next++);
      now = returned;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      const std::size_t i = outstanding[k];
      if (!tickets[i].ready()) {
        ++k;
        continue;
      }
      now = since_start();
      const serve::Response response = tickets[i].wait();
      step.done_ns[i] = now;
      step.latency_us[i] = (now - step.due_ns[i]) * 1e-3;
      step.hashes[i] = response_hash(response);
      if (response.status != serve::Status::kOk &&
          response.status != serve::Status::kRejected)
        ++step.not_ok;
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
      if (next < n && step.due_ns[next] <= now) break;
    }
  }
  step.elapsed_s = since_start() * 1e-9;
  step.service_cpu_s = (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0) -
                       (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - gen_cpu0);
  return step;
}

/// Search for the highest rate that meets the limit, by an adaptive
/// staircase: each probe multiplies the rate by a factor when it met the
/// limit and divides it by the factor when it did not. The factor starts
/// at 2 and takes its square root at every reversal, down to 1.05; three
/// moves in one direction square it again (up to 2), so a bad start or a
/// run of stalled probes is left quickly. It never probes below `floor`,
/// so a host stall costs a few probes, not the run. The staircase settles
/// where half the probes meet the limit; the estimate is the median rate
/// of the last two thirds of the probes.
class Staircase {
 public:
  Staircase(double start, double floor) : rate_(start), floor_(floor) {}

  /// Sends one probe at the current rate and moves the rate.
  void probe(serve::Service& service, const serve::WorkloadSpec& spec,
             std::uint64_t& next_index, double probe_s, std::uint64_t seed) {
    visited_.push_back(rate_);
    const Step s = run_step(service, spec, next_index, rate_, probe_s, seed);
    next_index += s.size();
    const int direction = s.meets_limit() ? 1 : -1;
    run_ = direction == last_ ? run_ + 1 : 1;
    if (last_ != 0 && direction != last_)
      factor_ = std::max(std::sqrt(factor_), kMinFactor);
    else if (run_ >= 3)
      factor_ = std::min(factor_ * factor_, kMaxFactor);
    last_ = direction;
    rate_ = std::max(direction > 0 ? rate_ * factor_ : rate_ / factor_,
                     floor_);
  }

  double estimate() const {
    return quantile(std::vector<double>(
                        visited_.begin() + static_cast<std::ptrdiff_t>(
                                               visited_.size() / 3),
                        visited_.end()),
                    0.5);
  }
  const std::vector<double>& visited() const { return visited_; }

 private:
  static constexpr double kMinFactor = 1.05, kMaxFactor = 2.0;
  double rate_;
  const double floor_;
  double factor_ = kMaxFactor;
  int last_ = 0, run_ = 0;  // last direction (+1 up, -1 down), its length
  std::vector<double> visited_;
};

/// Responses of the fixed-rate steps replayed synchronously (submit then
/// drain, a chunk at a time) on a fresh, identically warmed service,
/// hashed per request.
std::vector<std::uint64_t> synchronous_replay(const serve::WorkloadSpec& spec,
                                              std::uint64_t count) {
  serve::Service service(service_config());
  warm_all(service, spec);
  std::vector<std::uint64_t> hashes;
  hashes.reserve(count);
  for (std::uint64_t first = 0; first < count; first += kReplayChunk) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kReplayChunk, count - first);
    const auto tickets = std::make_unique<serve::Ticket[]>(n);
    for (std::uint64_t i = 0; i < n; ++i)
      service.submit(serve::make_request(spec, first + i), &tickets[i]);
    service.drain();
    for (std::uint64_t i = 0; i < n; ++i)
      hashes.push_back(response_hash(tickets[i].wait()));
  }
  return hashes;
}

/// The windows of one fixed rate. Percentiles up to p90 and the
/// generator's lateness are the median of the per-window values, so a
/// host stall in one window moves neither; p99 pools every request.
struct Series {
  double rate = 0.0;
  std::vector<const Step*> windows;

  double latency_us(double q) const {
    std::vector<double> per_window;
    for (const Step* s : windows)
      per_window.push_back(quantile(s->latency_us, q));
    return quantile(per_window, 0.5);
  }
  double service_cpu_us_per_request() const {
    std::vector<double> per_window;
    for (const Step* s : windows)
      per_window.push_back(s->service_cpu_s * 1e6 /
                           static_cast<double>(s->size()));
    return quantile(per_window, 0.5);
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const Step* s : windows) n += s->rejected + s->not_ok;
    return n;
  }
  void report(Report& r, const std::string& prefix) const {
    std::vector<double> all, late_p90, late_p99;
    double achieved = 1.0;
    for (const Step* s : windows) {
      all.insert(all.end(), s->latency_us.begin(), s->latency_us.end());
      late_p90.push_back(quantile(s->late_us, 0.9));
      late_p99.push_back(quantile(s->late_us, 0.99));
      achieved = std::min(achieved, s->achieved_ratio());
    }
    r.detail.push_back({prefix + ".rate_rps", rate, "req/s"});
    r.detail.push_back(
        {prefix + ".requests", static_cast<double>(all.size()), "count"});
    r.detail.push_back({prefix + ".p50_us", latency_us(0.5), "us"});
    r.detail.push_back({prefix + ".p90_us", latency_us(0.9), "us"});
    r.detail.push_back({prefix + ".p99_us", quantile(all, 0.99), "us"});
    r.detail.push_back({prefix + ".achieved_ratio", achieved, "ratio"});
    r.detail.push_back(
        {prefix + ".gen.late_p90_us", quantile(late_p90, 0.5), "us"});
    r.detail.push_back(
        {prefix + ".gen.late_p99_us", quantile(late_p99, 0.5), "us"});
  }
};

/// One scheduler round of the traced run's own pump loop.
struct Round {
  Clock::time_point begin, end;
  std::size_t delivered = 0;
};

/// The live half of a traced serve run: one low-rate and one high-rate
/// window, with pump() driven back to back from a second thread (the
/// finest public boundary) and every non-empty round recorded.
struct PumpedRun {
  std::vector<Step> steps;
  std::vector<Round> rounds;
  std::uint64_t empty_rounds = 0;
  double electrical_s = 0.0;  ///< top-level kernel time, all threads.
};

PumpedRun run_pumped(const ServeWorkload& w, const Options& opt,
                     serve::Service& service,
                     const serve::WorkloadSpec& spec) {
  PumpedRun run;
  std::atomic<bool> stop{false};
  std::exception_ptr pump_error;
  const ProfSnapshot before = ProfSnapshot::take();
  std::thread pumper([&] {
    try {
      while (!stop.load(std::memory_order_acquire)) {
        const auto b = Clock::now();
        const std::size_t delivered = service.pump();
        if (delivered == 0)
          ++run.empty_rounds;
        else
          run.rounds.push_back({b, Clock::now(), delivered});
      }
    } catch (...) {
      pump_error = std::current_exception();
    }
  });
  const double step_s = opt.smoke ? 0.2 : opt.seconds * 0.3;
  std::uint64_t next_index = 0;
  try {
    for (double rate : {w.low_rps, w.high_rps}) {
      run.steps.push_back(
          run_step(service, spec, next_index, rate, step_s, opt.seed));
      next_index += run.steps.back().size();
    }
  } catch (...) {
    stop.store(true, std::memory_order_release);
    pumper.join();
    throw;
  }
  stop.store(true, std::memory_order_release);
  pumper.join();
  if (pump_error) std::rethrow_exception(pump_error);
  run.electrical_s = electrical_seconds(before, ProfSnapshot::take());
  return run;
}

/// Time spent in each replayed call, summed over the batches.
struct ReplayTimes {
  double compile_s = 0.0;  ///< validate + compile.
  double fuse_s = 0.0;
  double run_s = 0.0;      ///< Executor::run.
  double wall_s = 0.0;     ///< whole batches, lookups and assembly included.
  std::uint64_t batches = 0;
  bool matches_live = true;
  ProfSnapshot before, after;
};

/// Replays every (shard, batch) the rounds formed, in order, on fresh
/// shards built as Service builds them, on this thread. Round k delivered
/// the stream ordinals [first, first + delivered); a request's id is its
/// ordinal + 1 and routes to shard id % shards, and each shard cuts its
/// share into batches of max_batch. A shard's command order is the stream
/// order either way, so the replay repeats the live work and must answer
/// as the live service did.
ReplayTimes replay_batches(const serve::ServiceConfig& config,
                           const serve::WorkloadSpec& spec,
                           const std::vector<Round>& rounds,
                           const std::vector<std::uint64_t>& live_hashes,
                           TraceLog& trace) {
  std::vector<std::unique_ptr<serve::Shard>> shards;
  for (std::size_t i = 0; i < config.shards; ++i) {
    serve::Shard::Config sc;
    sc.profile = config.profiles[i % config.profiles.size()];
    sc.seed = config.seed;
    sc.group_size = config.group_size;
    sc.steer = config.steer_groups;
    shards.push_back(
        std::make_unique<serve::Shard>(sc, static_cast<std::uint32_t>(i)));
    for (unsigned b = 0; b < spec.banks; ++b)
      for (unsigned sa = 0; sa < spec.subarrays; ++sa)
        shards.back()->warm(static_cast<dram::BankId>(b),
                            static_cast<dram::SubarrayId>(sa));
  }
  static const pud::RowGroup kNoGroup{};
  ReplayTimes t;
  t.before = ProfSnapshot::take();
  std::uint64_t first = 0;
  for (const Round& round : rounds) {
    std::vector<std::vector<std::uint64_t>> per_shard(shards.size());
    for (std::uint64_t o = first; o < first + round.delivered; ++o)
      per_shard[(o + 1) % shards.size()].push_back(o);
    first += round.delivered;
    for (std::size_t si = 0; si < shards.size(); ++si) {
      serve::Shard& shard = *shards[si];
      const std::vector<std::uint64_t>& items = per_shard[si];
      for (std::size_t begin = 0; begin < items.size();
           begin += config.max_batch) {
        const std::size_t count =
            std::min(config.max_batch, items.size() - begin);
        std::vector<serve::Request> requests;
        for (std::size_t j = 0; j < count; ++j) {
          requests.push_back(serve::make_request(spec, items[begin + j]));
          requests.back().id = items[begin + j] + 1;
        }
        // The batch bracket covers what Shard::execute does around the
        // timed calls that the replay repeats: group lookup and response
        // assembly. What it holds beyond the timed calls is unattributed.
        const auto b0 = Clock::now();
        std::vector<serve::CompiledRequest> compiled;
        for (const serve::Request& request : requests) {
          const pud::RowGroup& group =
              request.op == serve::OpKind::kRowClone
                  ? kNoGroup
                  : shard.group_for(request.bank, request.sa);
          const auto c0 = Clock::now();
          if (!shard.compiler().validate(request, group).empty())
            throw std::runtime_error("replay: request " +
                                     std::to_string(request.id) +
                                     " failed validation");
          compiled.push_back(shard.compiler().compile(request, group));
          t.compile_s += seconds_between(c0, Clock::now());
        }
        const auto b1 = Clock::now();
        const bender::Program fused = shard.compiler().fuse(
            "serve.s" + std::to_string(si) + ".b" + std::to_string(t.batches),
            compiled);
        const auto b2 = Clock::now();
        bender::ExecutionResult result = shard.engine().executor().run(fused);
        const auto b3 = Clock::now();
        std::vector<serve::Response> responses(count);
        std::size_t next_read = 0;
        for (std::size_t j = 0; j < count; ++j) {
          responses[j].id = requests[j].id;
          if (compiled[j].reads > 0) {
            responses[j].result = std::move(result.reads.at(next_read));
            next_read += compiled[j].reads;
          }
        }
        const auto b4 = Clock::now();
        t.fuse_s += seconds_between(b1, b2);
        t.run_s += seconds_between(b2, b3);
        t.wall_s += seconds_between(b0, b4);
        if (t.batches++ < kMaxSpansPerKind) {
          const std::uint64_t batch_span =
              trace.span("batch s" + std::to_string(si), 3, b0, b4);
          trace.span("lookup+validate+compile", 3, b0, b1, batch_span);
          trace.span("fuse", 3, b1, b2, batch_span);
          trace.span("executor.run", 3, b2, b3, batch_span);
        }
        for (std::size_t j = 0; j < count; ++j)
          t.matches_live = t.matches_live &&
                           response_hash(responses[j]) ==
                               live_hashes[items[begin + j]];
      }
    }
  }
  t.after = ProfSnapshot::take();
  return t;
}

/// Per-layer attribution for a traced serve run: the pumped live run,
/// its requests mapped onto the rounds that delivered them, and the
/// single-thread replay of its batches.
void traced_serve(const ServeWorkload& w, const Options& opt,
                  serve::Service& service, const serve::WorkloadSpec& spec,
                  double steer_s, std::size_t slots, Report& r) {
  TraceLog trace(g_process_start);
  trace.name_thread(1, "generator");
  trace.name_thread(2, "scheduler (pump)");
  trace.name_thread(3, "replay");
  const PumpedRun run = run_pumped(w, opt, service, spec);

  // Requests leave the queue in submission order and, with no rejections
  // or reroutes, every request is delivered by the round that popped it,
  // so consecutive rounds deliver consecutive runs of the stream.
  std::uint64_t total = 0, failed = 0;
  std::vector<double> submit_us, queue_wait_us;
  for (const Step& s : run.steps) {
    total += s.size();
    failed += s.rejected + s.not_ok;
    submit_us.insert(submit_us.end(), s.submit_us.begin(), s.submit_us.end());
  }
  std::uint64_t delivered = 0;
  for (const Round& round : run.rounds) delivered += round.delivered;
  if (failed != 0 || delivered != total)
    throw std::runtime_error(
        "traced run: rounds do not account for the stream (" +
        std::to_string(delivered) + " delivered, " + std::to_string(total) +
        " sent, " + std::to_string(failed) + " not ok)");
  std::vector<std::size_t> round_of;
  round_of.reserve(total);
  for (std::size_t k = 0; k < run.rounds.size(); ++k)
    round_of.insert(round_of.end(), run.rounds[k].delivered, k);

  std::vector<std::uint64_t> live_hashes;
  std::size_t ordinal = 0;
  for (const Step& s : run.steps) {
    const auto at = [&s](double ns) {
      return s.start + std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
    };
    const std::uint64_t step_span = trace.span(
        "step " + json_number(std::round(s.size() / s.due_ns.back() * 1e9)) +
            " req/s",
        1, s.start, at(s.elapsed_s * 1e9));
    for (std::size_t i = 0; i < s.size(); ++i, ++ordinal) {
      const Round& round = run.rounds[round_of[ordinal]];
      const auto submitted = at(s.submitted_ns[i]);
      queue_wait_us.push_back(
          std::max(0.0, std::chrono::duration<double, std::micro>(
                            round.begin - submitted)
                            .count()));
      live_hashes.push_back(s.hashes[i]);
      if (ordinal >= kMaxSpansPerKind) continue;
      const std::uint64_t id = ordinal + 1;
      const std::uint64_t req = trace.span(
          "request", 1, at(s.due_ns[i]), at(s.done_ns[i]), step_span, id);
      trace.span("submit", 1, at(s.submitted_ns[i] - s.submit_us[i] * 1e3),
                 submitted, req, id);
      trace.span("queue_wait", 1, submitted, std::max(round.begin, submitted),
                 req, id);
    }
  }
  std::vector<double> round_us, round_requests;
  double round_s = 0.0;
  for (const Round& round : run.rounds) {
    if (round_us.size() < kMaxSpansPerKind)
      trace.span("pump " + std::to_string(round.delivered), 2, round.begin,
                 round.end);
    round_us.push_back(
        std::chrono::duration<double, std::micro>(round.end - round.begin)
            .count());
    round_requests.push_back(static_cast<double>(round.delivered));
    round_s += round_us.back() * 1e-6;
  }

  const ReplayTimes t = replay_batches(service.config(), spec, run.rounds,
                                       live_hashes, trace);
  const double replay_electrical_s = electrical_seconds(t.before, t.after);
  const double workers = static_cast<double>(
      charz::detail::pool_workers(service.config().shards));
  common_layers(r, t.before, t.after, t.wall_s, static_cast<double>(total),
                t.compile_s + t.fuse_s + t.run_s - replay_electrical_s,
                ratio(t.wall_s, round_s * workers),
                run.electrical_s / static_cast<double>(total));
  const serve::ServeStats& stats = service.stats();
  const double b = static_cast<double>(t.batches);
  r.detail.insert(
      r.detail.begin(),
      {{"serve.submit_us", quantile(submit_us, 0.5), "us"},
       {"serve.queue_wait_us", quantile(queue_wait_us, 0.5), "us"},
       {"serve.round_us", mean(round_us), "us"},
       {"serve.round_requests", mean(round_requests), "count"},
       {"serve.batch_size_mean",
        ratio(static_cast<double>(stats.fused_requests),
              static_cast<double>(stats.batches)),
        "count"},
       {"serve.empty_round_share",
        ratio(static_cast<double>(run.empty_rounds),
              static_cast<double>(run.empty_rounds + run.rounds.size())),
        "ratio"},
       {"pud.steer_ms_per_slot", steer_s * 1e3 / static_cast<double>(slots),
        "ms"},
       {"serve.compile_us_per_req",
        t.compile_s * 1e6 / static_cast<double>(total), "us"},
       {"serve.fuse_us_per_batch", t.fuse_s * 1e6 / b, "us"},
       {"bender.run_us_per_batch", t.run_s * 1e6 / b, "us"},
       {"dram.electrical_us_per_batch", replay_electrical_s * 1e6 / b, "us"},
       {"serve.replay_unattributed_share",
        ratio(t.wall_s - t.compile_s - t.fuse_s - t.run_s, t.wall_s), "ratio"},
       {"serve.replay_batches", b, "count"}});
  Series{w.low_rps, {&run.steps[0]}}.report(r, "low");
  Series{w.high_rps, {&run.steps[1]}}.report(r, "high");
  r.check("replay_matches_live", t.matches_live);
  r.attempted = total;
  r.failed = failed;
  trace.write(opt.trace);
}

void run_serve(const ServeWorkload& w, const Options& opt, Report& r) {
  const auto setup0 = Clock::now();
  auto service = std::make_unique<serve::Service>(service_config());
  const serve::WorkloadSpec spec =
      workload_spec(w, service->config(), opt.seed);
  const auto warm0 = Clock::now();
  const std::size_t slots = warm_all(*service, spec);
  const auto setup1 = Clock::now();
  const double setup_s = seconds_between(setup0, setup1);
  if (opt.setup_only) {
    r.end_to_end.push_back({"setup_s", setup_s, "s"});
    return;
  }
  if (!opt.trace.empty()) {
    traced_serve(w, opt, *service, spec, seconds_between(warm0, setup1), slots,
                 r);
    return;
  }

  // The run is cut into segments, each on a fresh service: a low-rate and
  // a high-rate window (together 60 % of the budget), then probes of the
  // max-rate search (30 %). All three measurements then span the whole
  // run, so slow host drift moves them alike; each percentile is the
  // median of its per-window values. A segment's windows open its
  // service's request stream, so a fresh service can replay them exactly.
  const int segments = opt.smoke ? 1 : 10;
  const int probes_per_segment = 2;
  const double window_s = opt.smoke ? 0.2 : opt.seconds * 0.3 / segments;
  const double probe_s =
      opt.smoke ? 0.1 : opt.seconds * 0.3 / (segments * probes_per_segment);
  std::deque<Step> steps;  // stable addresses for the Series views
  Series low{w.low_rps, {}}, high{w.high_rps, {}};
  Staircase search(w.high_rps, w.low_rps);
  std::vector<serve::WorkloadSpec> streams;
  std::vector<std::uint64_t> fixed;  // window requests of each segment
  double rss_mb = 0.0;
  bool accounted = true;
  std::uint64_t batches = 0;
  for (int k = 0; k < segments; ++k) {
    if (!service) {
      service = std::make_unique<serve::Service>(service_config());
      warm_all(*service, spec);
    }
    const std::uint64_t stream_seed = hash_combine(opt.seed, k);
    streams.push_back(workload_spec(w, service->config(), stream_seed));
    const serve::WorkloadSpec& stream = streams.back();
    service->start();
    std::uint64_t next_index = 0;
    for (Series* series : {&low, &high}) {
      steps.push_back(run_step(*service, stream, next_index, series->rate,
                               window_s, stream_seed));
      next_index += steps.back().size();
      series->windows.push_back(&steps.back());
    }
    fixed.push_back(next_index);
    // Peak memory of the service at the fixed rates. The probes generate
    // their requests up front at whatever rates they visit, so memory
    // after them would measure the search.
    if (k == 0) rss_mb = peak_rss_mb();
    for (int p = 0; p < probes_per_segment; ++p)
      search.probe(*service, stream, next_index, probe_s, stream_seed);
    service->stop();

    const serve::ServeStats& stats = service->stats();
    const std::uint64_t resolved = stats.delivered() +
                                   stats.rejected_queue_full.load() +
                                   stats.rejected_quota.load();
    accounted = accounted && stats.submitted.load() == next_index &&
                resolved == stats.submitted.load() &&
                stats.delivered() == stats.admitted.load();
    batches += stats.batches;
    // Its pool threads end before the next service's start.
    service.reset();
  }
  r.detail.push_back({"serve.batches", static_cast<double>(batches), "count"});

  std::vector<std::uint64_t> live, replay;
  for (const Step& s : steps)
    live.insert(live.end(), s.hashes.begin(), s.hashes.end());
  for (std::size_t k = 0; k < streams.size(); ++k) {
    const std::vector<std::uint64_t> h =
        synchronous_replay(streams[k], fixed[k]);
    replay.insert(replay.end(), h.begin(), h.end());
  }
  const double max_rate = search.estimate();
  const std::vector<double>& visited = search.visited();

  r.end_to_end = {
      {"low.p50_ms", low.latency_us(0.5) * 1e-3, "ms"},
      {"high.p50_ms", high.latency_us(0.5) * 1e-3, "ms"},
      {"high.cpu_ms_per_op", high.service_cpu_us_per_request() * 1e-3, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  low.report(r, "low");
  high.report(r, "high");
  r.detail.push_back(
      {"high.cpu_us_per_req", high.service_cpu_us_per_request(), "us"});
  r.detail.push_back({"max_rate_rps", max_rate, "req/s"});
  r.detail.push_back(
      {"max_rate_probes_q1_rps", quantile(visited, 0.25), "req/s"});
  r.detail.push_back(
      {"max_rate_probes_q3_rps", quantile(visited, 0.75), "req/s"});
  for (std::uint64_t n : fixed) r.attempted += n;
  r.failed = low.failed() + high.failed();
  r.check("accounting_exactly_once", accounted);
  r.check("response_hash", hex(fold(live)));
  r.check("replay_hash", hex(fold(replay)));
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "simra_bench: " << why << "\n"
            << "usage: simra_bench --workload NAME --out FILE [--seed N] "
               "[--seconds S] [--trace FILE] [--smoke] [--setup-only]\n"
            << "workloads:";
  for (const auto& w : kFigureWorkloads) std::cerr << " " << w.name;
  for (const auto& w : kServeWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--trace") {
      opt.trace = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0.0))
        usage("bad --seconds " + v);
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (opt.workload.empty() || opt.out.empty())
    usage("--workload and --out are required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report report;
  std::string kind;
  try {
    for (const FigureWorkload& w : kFigureWorkloads)
      if (opt.workload == w.name) {
        kind = "figure";
        run_figure(w, opt, report);
      }
    for (const ServeWorkload& w : kServeWorkloads)
      if (opt.workload == w.name) {
        kind = "serve";
        run_serve(w, opt, report);
      }
  } catch (const std::exception& e) {
    std::cerr << "simra_bench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (kind.empty()) usage("unknown workload " + opt.workload);
  std::ofstream out(opt.out);
  out << report.render(opt.workload, kind, opt.seed, opt.seconds,
                       !opt.trace.empty(), opt.smoke);
  if (!out) {
    std::cerr << "simra_bench: cannot write " << opt.out << "\n";
    return 1;
  }
  return 0;
}
