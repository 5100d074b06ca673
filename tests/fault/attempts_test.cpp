#include "fault/attempts.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitvec.hpp"

namespace simra::fault {
namespace {

constexpr std::uint64_t kSeed = 0xA77E;
constexpr std::uint64_t kOrdinal = 4;

Resilience resilience(const char* spec) {
  return {FaultSpec::parse(spec), kSeed};
}

/// Records every hook call of one run_attempts.
struct Calls {
  int crash_texts = 0;
  std::vector<unsigned> bodies;
  std::vector<unsigned> retries;
  std::vector<double> backoffs_ms;
  std::vector<unsigned> failed;
  std::vector<std::string> errors;
  std::vector<bool> null_injector;
};

template <class Body>
Attempts run(const Resilience& res, Calls& calls, Body&& body) {
  Attempts out;
  run_attempts(
      out, res, 1, 2, kOrdinal,
      [&calls](unsigned attempt) {
        ++calls.crash_texts;
        return "injected test crash (task " + std::to_string(kOrdinal) +
               ", attempt " + std::to_string(attempt) + ")";
      },
      [&](unsigned attempt, ChipInjector* injector) {
        calls.bodies.push_back(attempt);
        calls.null_injector.push_back(injector == nullptr);
        body(attempt, injector, out);
      },
      [&calls](unsigned attempt, double backoff_ms) {
        calls.retries.push_back(attempt);
        calls.backoffs_ms.push_back(backoff_ms);
      },
      [&calls](unsigned attempt, const std::string& error) {
        calls.failed.push_back(attempt);
        calls.errors.push_back(error);
      });
  return out;
}

const auto kSucceeds = [](unsigned, ChipInjector*, Attempts&) {};
const auto kAlwaysFails = [](unsigned attempt, ChipInjector*, Attempts&) {
  throw std::runtime_error("body fails attempt " + std::to_string(attempt));
};

TEST(RunAttempts, CleanSpecRunsTheBodyOnceWithNoInjector) {
  Calls calls;
  const Attempts out = run(resilience(""), calls, kSucceeds);
  EXPECT_EQ(calls.bodies, std::vector<unsigned>{0});
  EXPECT_EQ(calls.null_injector, std::vector<bool>{true});
  EXPECT_TRUE(calls.retries.empty());
  EXPECT_TRUE(calls.failed.empty());
  EXPECT_EQ(calls.crash_texts, 0);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.succeeded);
  EXPECT_TRUE(out.error.empty());
  EXPECT_EQ(out.faults.total(), 0u);
  EXPECT_TRUE(out.trace.empty());
}

TEST(RunAttempts, CrashedOrdinalExhaustsEveryAttemptWithoutTheBody) {
  Calls calls;
  const Attempts out =
      run(resilience("task.crash_tasks=4,retry.max=2"), calls, kSucceeds);
  EXPECT_TRUE(calls.bodies.empty());
  EXPECT_EQ(calls.crash_texts, 3);
  EXPECT_EQ(calls.retries, (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(calls.failed, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(out.error, "injected test crash (task 4, attempt 2)");
  EXPECT_EQ(calls.errors.back(), out.error);
  EXPECT_EQ(out.faults.task_crashes, 3u);
}

TEST(RunAttempts, OtherOrdinalsOfACrashSpecRunWithAnInjector) {
  Calls calls;
  const Attempts out =
      run(resilience("task.crash_tasks=3,retry.max=2"), calls, kSucceeds);
  EXPECT_EQ(calls.bodies, std::vector<unsigned>{0});
  EXPECT_EQ(calls.null_injector, std::vector<bool>{false});
  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.faults.total(), 0u);
}

TEST(RunAttempts, AThrowFailsOnlyItsAttempt) {
  Calls calls;
  const Attempts out = run(resilience(""), calls,
                           [](unsigned attempt, ChipInjector*, Attempts&) {
                             if (attempt == 0)
                               throw std::runtime_error("first attempt fails");
                           });
  EXPECT_EQ(calls.bodies, (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(calls.retries, std::vector<unsigned>{1});
  EXPECT_EQ(calls.backoffs_ms, std::vector<double>{0.0});
  EXPECT_EQ(calls.failed, std::vector<unsigned>{0});
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.error, "first attempt fails");
}

TEST(RunAttempts, ANonStandardThrowIsAnUnknownException) {
  Calls calls;
  const Attempts out = run(resilience("retry.max=0"), calls,
                           [](unsigned, ChipInjector*, Attempts&) { throw 42; });
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(out.error, "unknown exception");
  EXPECT_EQ(calls.errors, std::vector<std::string>{"unknown exception"});
}

TEST(RunAttempts, BackoffDoublesBeforeEachRetry) {
  Calls calls;
  const auto start = std::chrono::steady_clock::now();
  const Attempts out =
      run(resilience("retry.max=2,retry.backoff_ms=2"), calls, kAlwaysFails);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(calls.backoffs_ms, (std::vector<double>{2.0, 4.0}));
  EXPECT_GE(elapsed_ms, 6.0);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(out.error, "body fails attempt 2");
}

// Past 32 retries a 32-bit doubling would overflow; the backoff stays
// defined (and zero without a base) however long the chain.
TEST(RunAttempts, LongRetryChainsRunEveryAttempt) {
  Calls calls;
  const Attempts out =
      run(resilience("task.fail=1,retry.max=40"), calls, kSucceeds);
  EXPECT_EQ(out.attempts, 41u);
  EXPECT_EQ(out.faults.task_crashes, 41u);
  EXPECT_EQ(calls.backoffs_ms, std::vector<double>(40, 0.0));
}

TEST(RunAttempts, TraceListsTheCrashesInAttemptOrder) {
  Calls calls;
  const Attempts out = run(resilience("trace=1,task.fail=1"), calls, kSucceeds);
  EXPECT_EQ(out.trace, (std::vector<std::string>{
                           "task: crash ordinal 4 attempt 0",
                           "task: crash ordinal 4 attempt 1",
                           "task: crash ordinal 4 attempt 2"}));
  EXPECT_EQ(out.faults.task_crashes, 3u);
}

TEST(RunAttempts, TraceOnlySpecPassesNoInjector) {
  Calls calls;
  const Attempts out = run(resilience("trace=1"), calls, kSucceeds);
  EXPECT_EQ(calls.null_injector, std::vector<bool>{true});
  EXPECT_TRUE(out.succeeded);
  EXPECT_TRUE(out.trace.empty());
}

TEST(RunAttempts, InjectorTraceFollowsTheBodysOwn) {
  Calls calls;
  const Attempts out =
      run(resilience("trace=1,chip.retention=1"), calls,
          [](unsigned, ChipInjector* injector, Attempts& record) {
            record.trace.push_back("body");
            BitVec cells(8);
            injector->retention_flips(cells);
          });
  EXPECT_EQ(out.trace,
            (std::vector<std::string>{"body", "chip: retention 8"}));
  EXPECT_EQ(out.faults.chip_retention_flips, 8u);
}

}  // namespace
}  // namespace simra::fault
