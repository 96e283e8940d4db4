// Deterministic, seedable random number generation for simulation.
//
// xoshiro256** core (public-domain algorithm by Blackman & Vigna) plus the
// distributions the trace generators and Monte Carlo engine need. All
// simulator randomness flows through Rng so experiments are reproducible
// from a single seed.
#pragma once

#include <cstdint>
#include <vector>

#include "reap/common/assert.hpp"

namespace reap::common {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  // The per-draw primitives are defined inline: they sit on the trace
  // generator's per-operation path, where an out-of-line call per draw is
  // measurable.
  std::uint64_t next() {
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

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  // Uniform in [0, 1): 53 high bits -> double.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) {
    REAP_EXPECTS(bound > 0);
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  // Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // Standard normal via Box-Muller (cached second value).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  // Geometric: number of failures before first success, p in (0, 1].
  std::uint64_t geometric(double p);

  // Samples an index from unnormalized weights.
  std::size_t weighted(const std::vector<double>& weights);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// Approximately Zipf-distributed ranks in [0, n): P(k) ~ 1/(k+1)^s, O(1)
// per draw, for the hot-set trace primitives where n can be large. Not an
// exact sampler (in particular not Hormann-Derflinger rejection-inversion):
// its acceptance test compares (k/x)^s against a fixed 1.2 bound, and over
// 2e7 draws at n in {2048, 16384}, s in {0.85, 1.0, 1.1, 1.45} it sits at a
// total-variation distance of 0.6-1.1% from the exact pmf (P(1)/P(0) is
// 0.513 against 0.500 at s = 1). Every trace depends on its exact draws.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t operator()(Rng& rng) const;

  std::size_t n() const { return n_; }
  double s() const { return s_; }

 private:
  double h(double x) const;
  double h_inv(double x) const;

  std::size_t n_;
  double s_;
  double h_x1_;
  double h_n_;
};

}  // namespace reap::common
