#include "common/rng.hpp"

#include <cmath>

#include "common/normal.hpp"

namespace simra {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash64(std::uint64_t value) noexcept {
  std::uint64_t s = value;
  return splitmix64(s);
}

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) noexcept {
  std::uint64_t s = seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& lane : state_) lane = splitmix64(s);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's multiply-shift rejection method: unbiased and branch-light.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

void Rng::normal_fill(std::span<double> out) noexcept {
  for (double& v : out) v = normal();
}

Rng Rng::fork() noexcept { return Rng{(*this)()}; }

double Rng::CounterStream::at(std::uint64_t index) const noexcept {
  return inverse_normal_cdf(uniform_from_hash(hash_combine(prefix_, index)));
}

void Rng::CounterStream::fill(std::span<double> out) noexcept {
  const std::uint64_t base = reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = at(base + i);
}

}  // namespace simra
