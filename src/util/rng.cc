#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/check.h"

namespace grefar {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  GREFAR_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  GREFAR_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t r;
  do {
    r = next_u64();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::normal(double mean, double sd) {
  GREFAR_CHECK(sd >= 0.0);
  return mean + sd * normal();
}

std::int64_t Rng::poisson(double lambda) {
  GREFAR_CHECK(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda > 64.0) {
    double x = std::round(normal(lambda, std::sqrt(lambda)));
    return x < 0.0 ? 0 : static_cast<std::int64_t>(x);
  }
  // Knuth: multiply uniforms until below e^-lambda.
  const double limit = std::exp(-lambda);
  std::int64_t k = 0;
  double product = uniform();
  while (product > limit) {
    ++k;
    product *= uniform();
  }
  return k;
}

bool Rng::bernoulli(double p) {
  GREFAR_CHECK(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

Rng Rng::fork(std::uint64_t stream) const {
  // Derive a child seed by hashing the parent state with the stream id.
  SplitMix64 sm(s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 41) ^
                (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL));
  return Rng(sm.next());
}

}  // namespace grefar
