#include "dram/process_variation.hpp"

#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/kernels.hpp"

namespace simra::dram {

namespace {

double hash_to_uniform(std::uint64_t h) { return uniform_from_hash(h); }

}  // namespace

double VariationField::normal(std::uint64_t k0) const {
  return inverse_normal_cdf(hash_to_uniform(hash_combine(seed_, k0)));
}

double VariationField::normal(std::uint64_t k0, std::uint64_t k1) const {
  return inverse_normal_cdf(
      hash_to_uniform(hash_combine(hash_combine(seed_, k0), k1)));
}

double VariationField::normal(std::uint64_t k0, std::uint64_t k1,
                              std::uint64_t k2) const {
  return inverse_normal_cdf(hash_to_uniform(prefix(k0, k1, k2)));
}

double VariationField::normal(std::uint64_t k0, std::uint64_t k1,
                              std::uint64_t k2, std::uint64_t k3) const {
  return inverse_normal_cdf(
      hash_to_uniform(hash_combine(prefix(k0, k1, k2), k3)));
}

void VariationField::normal_fill(std::uint64_t k0, std::uint64_t k1,
                                 std::uint64_t k2,
                                 std::span<float> out) const {
  // Batched, SIMD-dispatched evaluation of
  // float(inverse_normal_cdf(hash_to_uniform(hash_combine(prefix, i)))) —
  // bit-identical to the per-index calls at every tier.
  kernels::hashed_normal_fill(prefix(k0, k1, k2), out);
}

std::uint64_t VariationField::prefix(std::uint64_t k0, std::uint64_t k1,
                                     std::uint64_t k2) const {
  return hash_combine(hash_combine(hash_combine(seed_, k0), k1), k2);
}

double VariationField::uniform(std::uint64_t k0, std::uint64_t k1,
                               std::uint64_t k2) const {
  return hash_to_uniform(prefix(k0, k1, k2));
}

}  // namespace simra::dram
