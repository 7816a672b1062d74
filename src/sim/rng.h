// Deterministic random number generation for workloads and device models.
//
// Every stochastic component takes an explicit Rng (seeded by the
// experiment harness), so a whole simulation is reproducible from one seed.
#pragma once

#include <cstdint>
#include <random>

#include "sim/check.h"

namespace bio::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    BIO_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child generator (for per-thread streams).
  Rng fork() { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace bio::sim
