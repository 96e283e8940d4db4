#include "reap/trace/datavalue.hpp"

#include <algorithm>
#include <cmath>

#include "reap/common/assert.hpp"
#include "reap/common/rng.hpp"

namespace reap::trace {

DataValueModel::DataValueModel(OnesDensitySpec spec, std::uint64_t line_bits,
                               std::uint64_t seed) {
  reseat(spec, line_bits, seed);
}

void DataValueModel::reseat(OnesDensitySpec spec, std::uint64_t line_bits,
                            std::uint64_t seed) {
  REAP_EXPECTS(line_bits >= 8);
  REAP_EXPECTS(spec.mean_density > 0.0 && spec.mean_density < 1.0);
  REAP_EXPECTS(spec.stddev_density >= 0.0);
  if (spec == spec_ && line_bits == line_bits_ && seed == seed_) return;
  spec_ = spec;
  line_bits_ = line_bits;
  seed_ = seed;
  memo_.clear();
}

std::uint32_t DataValueModel::compute_ones(std::uint64_t block) const {
  common::Rng rng(seed_ ^ (block * 0x9e3779b97f4a7c15ULL));
  const double nbits = static_cast<double>(line_bits_);
  const double density =
      rng.normal(spec_.mean_density, spec_.stddev_density);
  const double clamped = std::clamp(density, 0.01, 0.99);
  const double ones = std::round(clamped * nbits);
  return static_cast<std::uint32_t>(
      std::clamp(ones, 1.0, nbits - 1.0));
}

std::uint32_t DataValueModel::ones_for(std::uint64_t line_addr) const {
  const std::uint64_t block = line_addr >> 6;
  if (const std::uint32_t* hit = memo_.find(block)) return *hit;
  const std::uint32_t ones = compute_ones(block);
  memo_.insert(block, ones);
  return ones;
}

common::BitVec DataValueModel::payload_for(std::uint64_t line_addr) const {
  const std::uint32_t target = ones_for(line_addr);
  const std::uint64_t block = line_addr >> 6;
  common::Rng rng(seed_ ^ ~(block * 0xbf58476d1ce4e5b9ULL));
  common::BitVec v(line_bits_);
  // Reservoir-style: set exactly `target` distinct positions.
  std::uint32_t placed = 0;
  while (placed < target) {
    const std::size_t pos = static_cast<std::size_t>(rng.below(line_bits_));
    if (!v.test(pos)) {
      v.set(pos);
      ++placed;
    }
  }
  REAP_ENSURES(v.count_ones() == target);
  return v;
}

}  // namespace reap::trace
