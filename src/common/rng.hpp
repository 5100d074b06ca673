#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>

namespace simra {

/// splitmix64 step; used for seeding and hashing small integer tuples.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless hash of a 64-bit value (one splitmix64 round).
std::uint64_t hash64(std::uint64_t value) noexcept;

/// Combines a hash with another value (for deterministic per-entity seeds).
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) noexcept;

/// Deterministic, fast pseudo-random generator (xoshiro256++).
///
/// All stochastic behaviour in the simulator flows through this generator so
/// that experiments are exactly reproducible from a seed. Satisfies
/// std::uniform_random_bit_generator, so it can drive <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x5eed'5eed'5eed'5eedULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next xoshiro256++ output. Inline, with uniform() and chance(): the
  /// charge-share resolve flips a coin per tie column.
  result_type operator()() noexcept {
    const std::uint64_t result =
        std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of the next output.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Standard normal deviate (Marsaglia polar method, cached spare).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Fills `out` with standard normal deviates in the exact sequence
  /// repeated `normal()` calls would produce (same draws, same spare-value
  /// caching), so batched consumers stay value-identical to per-call ones.
  /// Deliberately scalar at every SIMD tier: Marsaglia's polar method is a
  /// sequentially dependent rejection sampler, so a vector variant could
  /// not reproduce this pinned sequence (hash-keyed batches that can
  /// vectorize live in dram::kernels::hashed_normal_fill).
  void normal_fill(std::span<double> out) noexcept;

  /// Bernoulli trial with success probability `p`.
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Derives an independent child generator (for per-entity streams).
  Rng fork() noexcept;

  class CounterStream;

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// Counter-based (stateless, indexable) standard-normal sampler.
///
/// Draw `i` is a pure function of `(seed, domain, i)`:
///
///   prefix = hash_combine(seed, domain)
///   n_i    = inverse_normal_cdf(uniform_from_hash(hash_combine(prefix, i)))
///
/// Unlike the Marsaglia polar `Rng::normal()`, there is no loop-carried
/// state: any chunking of a fill, any SIMD tier, and any thread schedule
/// that preserves per-stream draw indices produces bit-identical values —
/// which is what lets the electrical model's noise path batch and
/// vectorize. The only mutable state is the monotone draw cursor, so a
/// stream is as cheap to hold as an Rng but replayable from any index.
///
/// The stateful `Rng` remains the right tool where draws are consumed one
/// at a time in command order (tie-break coin flips, dropout decisions,
/// fault injection, `fork()`-derived per-entity streams); this class is
/// for bulk hot-path noise. The scalar `fill` here is the reference
/// implementation; `dram::kernels::counter_normal_fill` is the
/// SIMD-dispatched equivalent (bit-identical at every tier).
class Rng::CounterStream {
 public:
  CounterStream(std::uint64_t seed, std::uint64_t domain) noexcept
      : prefix_(hash_combine(seed, domain)) {}

  /// The stream's key digest: draw i is a pure function of (prefix, i).
  std::uint64_t prefix() const noexcept { return prefix_; }

  /// Next unconsumed draw index.
  std::uint64_t cursor() const noexcept { return cursor_; }

  /// Claims `count` consecutive draw indices and returns the first —
  /// the bulk entry point for callers that fill via the dispatched
  /// kernel (`counter_normal_fill(prefix(), base, out)`).
  std::uint64_t reserve(std::uint64_t count) noexcept {
    const std::uint64_t base = cursor_;
    cursor_ += count;
    return base;
  }

  /// The draw at an absolute index (does not move the cursor).
  double at(std::uint64_t index) const noexcept;

  /// The next sequential draw.
  double next() noexcept { return at(cursor_++); }

  /// Fills `out` with the draws at [cursor, cursor + out.size()) and
  /// advances the cursor. fill(N) and fill(N/2)+fill(N/2) produce the
  /// same values by construction.
  void fill(std::span<double> out) noexcept;

 private:
  std::uint64_t prefix_;
  std::uint64_t cursor_ = 0;
};

}  // namespace simra
