#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "fault/spec.hpp"

namespace simra::fault {

/// SIMRA_FAULT_SPEC + SIMRA_FAULT_SEED: read once per harness sweep and
/// once per serving fleet.
struct Resilience {
  FaultSpec spec;
  std::uint64_t fault_seed = 0;

  static Resilience from_env() {
    return {FaultSpec::from_env(), fault_seed_from_env()};
  }
};

/// What the attempts at one unit of work came to: a harness chip task
/// (`charz::ChipReport`) or a serve batch (`serve::BatchOutcome`).
struct Attempts {
  unsigned attempts = 0;
  bool succeeded = false;
  std::string error;  ///< last failure message; empty for a clean first try.
  FaultCounters faults;  ///< injected-fault tallies over all attempts.
  std::vector<std::string> trace;  ///< fault events (spec.trace runs only).
};

/// The resilience policy's attempt loop: up to `retry.max + 1` attempts,
/// until one succeeds. Before attempt a > 0 it calls
/// `on_retry(a, backoff_ms)`, then sleeps `retry.backoff_ms * 2^(a-1)` ms.
/// When the spec injects, each attempt gets a ChipInjector keyed
/// (k0, k1, attempt), which first draws the crash of `ordinal` (the
/// attempt then fails with `crash_text(attempt)` and the body does not
/// run), else sleeps the injected delay. `body(attempt, injector)` runs
/// the attempt (a null injector when nothing is injected); a throw fails
/// it with its `what()`, or "unknown exception". The injector's counters
/// and trace are merged into `out` after whatever the body merged, and
/// `on_failed(attempt, error)` follows each failed attempt.
template <class CrashText, class Body, class OnRetry, class OnFailed>
void run_attempts(Attempts& out, const Resilience& res, std::uint32_t k0,
                  std::uint32_t k1, std::uint64_t ordinal,
                  CrashText&& crash_text, Body&& body, OnRetry&& on_retry,
                  OnFailed&& on_failed) {
  const auto sleep_ms = [](double ms) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  };
  const unsigned max_attempts = res.spec.retry_max + 1;
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    if (attempt > 0) {
      const double backoff_ms = std::ldexp(res.spec.retry_backoff_ms,
                                           static_cast<int>(attempt - 1));
      on_retry(attempt, backoff_ms);
      if (backoff_ms > 0.0) sleep_ms(backoff_ms);
    }
    std::optional<ChipInjector> injector;
    bool ok = true;
    std::string error;
    if (res.spec.injects()) {
      injector.emplace(res.spec, res.fault_seed, k0, k1, attempt);
      if (injector->task_crash(ordinal)) {
        ok = false;
        error = crash_text(attempt);
      } else if (injector->task_delay_ms() > 0.0) {
        sleep_ms(injector->task_delay_ms());
      }
    }
    if (ok) {
      try {
        body(attempt, injector ? &*injector : nullptr);
      } catch (const std::exception& e) {
        ok = false;
        error = e.what();
      } catch (...) {
        ok = false;
        error = "unknown exception";
      }
    }
    if (injector) {
      out.faults += injector->counters();
      out.trace.insert(out.trace.end(), injector->trace().begin(),
                       injector->trace().end());
    }
    if (ok) {
      out.succeeded = true;
      return;
    }
    out.error = std::move(error);
    on_failed(attempt, out.error);
  }
}

}  // namespace simra::fault
