// Deterministic, platform-stable random number generation.
//
// std::mt19937 is portable but the standard *distributions* are not (their
// algorithms are implementation-defined), so every sampler here is
// implemented from first principles: the same seed produces the same stream
// on every platform/compiler. All simulations in this repository are
// reproducible given their seed.
#pragma once

#include <cstdint>

namespace grefar {

/// SplitMix64: tiny, high-quality 64-bit generator. Used standalone for
/// hashing-style use and to seed Xoshiro256.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// Rng: xoshiro256** — fast, high-quality PRNG with portable samplers.
///
/// Samplers implemented here (uniform, normal via Box-Muller, Poisson,
/// Bernoulli) are bit-stable across platforms.
class Rng {
 public:
  /// Seeds the four-word state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 uniform random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal sample (Box-Muller; caches the second variate).
  double normal();

  /// Normal with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);

  /// Poisson with mean `lambda` >= 0. Uses Knuth's method for small lambda
  /// and a normal approximation (rounded, clamped at 0) for lambda > 64 —
  /// adequate for workload synthesis and documented in tests.
  std::int64_t poisson(double lambda);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Forks an independent, deterministically-derived child generator;
  /// `stream` distinguishes siblings forked from the same parent state.
  Rng fork(std::uint64_t stream) const;

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace grefar
