#include "reap/common/rng.hpp"

#include <cmath>
#include <numbers>

namespace reap::common {

namespace {

// splitmix64: seeds the xoshiro state from one 64-bit value.
inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is invalid for xoshiro; splitmix64 of any seed avoids it,
  // but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  has_cached_normal_ = false;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  REAP_EXPECTS(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // never 0: hi-lo < 2^63
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

std::uint64_t Rng::geometric(double p) {
  REAP_EXPECTS(p > 0.0 && p <= 1.0);
  if (p == 1.0) return 0;
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::size_t Rng::weighted(const std::vector<double>& weights) {
  REAP_EXPECTS(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    REAP_EXPECTS(w >= 0.0);
    total += w;
  }
  REAP_EXPECTS(total > 0.0);
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numerical tail
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : n_(n), s_(s) {
  REAP_EXPECTS(n >= 1);
  REAP_EXPECTS(s >= 0.0);
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n_) + 0.5);
}

double ZipfSampler::h(double x) const {
  // Integral of x^-s: handles s == 1 (log) and s != 1 (power) branches.
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::h_inv(double x) const {
  if (s_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::size_t ZipfSampler::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  // Rejection sampling from a continuous envelope; approximate (see
  // rng.hpp).
  for (;;) {
    const double u = h_x1_ + rng.uniform() * (h_n_ - h_x1_);
    const double x = h_inv(u);
    const double k = std::floor(x + 0.5);
    if (k < 1.0) continue;
    if (k > static_cast<double>(n_)) continue;
    // s == 1 (the common profile setting) skips the pow: C/IEEE defines
    // pow(x, 1.0) == x exactly, so this is the same value, cheaper.
    const double ratio = s_ == 1.0 ? k / x : std::pow(k / x, s_);
    // Accept with probability proportional to pmf(k) / envelope(x).
    if (rng.uniform() * 1.2 <= ratio) {
      return static_cast<std::size_t>(k) - 1;
    }
  }
}

}  // namespace reap::common
