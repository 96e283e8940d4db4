// Data-value model: how many '1' bits a cache line holds.
//
// Read disturbance only threatens cells storing '1' (unidirectional), so a
// line's failure probability scales with its popcount n (Eq. 2). Traces do
// not carry store values, so the model assigns each line address a
// deterministic ones-count drawn from a configurable distribution; the same
// address always maps to the same count for reproducibility. It can also
// materialize a concrete payload with that popcount for the Monte Carlo
// engine, which runs real codecs on real bits.
#pragma once

#include <cstdint>

#include "reap/common/bitvec.hpp"

namespace reap::trace {

struct OnesDensitySpec {
  double mean_density = 0.35;   // fraction of '1' bits; SPEC data skews zero-heavy
  double stddev_density = 0.12; // cross-line spread

  bool operator==(const OnesDensitySpec&) const = default;
};

class DataValueModel {
 public:
  DataValueModel(OnesDensitySpec spec, std::uint64_t line_bits = 512,
                 std::uint64_t seed = 0xD5EED);

  // Re-points the model at (spec, line_bits, seed); afterwards it answers
  // exactly like a model constructed with them.
  void reseat(OnesDensitySpec spec, std::uint64_t line_bits,
              std::uint64_t seed);

  std::uint64_t line_bits() const { return line_bits_; }

  // Deterministic ones-count for the line containing `line_addr`
  // (block-aligned or not; the low 6 bits are ignored for 64B lines): a
  // normal draw around the spec's density from an Rng seeded by the block,
  // so a pure function of (spec, line_bits, seed, block). The simulator
  // draws it only when a check reads the line (sim::CacheSetView::ones).
  std::uint32_t ones_for(std::uint64_t line_addr) const;

  // A concrete payload whose popcount equals ones_for(line_addr); bit
  // positions are deterministic in the address too.
  common::BitVec payload_for(std::uint64_t line_addr) const;

 private:
  OnesDensitySpec spec_;
  std::uint64_t line_bits_ = 0;
  std::uint64_t seed_ = 0;
};

}  // namespace reap::trace
