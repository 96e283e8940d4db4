#include "reap/trace/datavalue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "reap/common/rng.hpp"

namespace reap::trace {
namespace {

TEST(DataValueModel, DeterministicPerAddress) {
  DataValueModel m({.mean_density = 0.35, .stddev_density = 0.1});
  for (std::uint64_t addr : {0x1000ull, 0xdeadbeefull, 0x7fff0000ull}) {
    EXPECT_EQ(m.ones_for(addr), m.ones_for(addr));
  }
}

TEST(DataValueModel, SubBlockAddressesShareValue) {
  DataValueModel m({.mean_density = 0.35, .stddev_density = 0.1});
  EXPECT_EQ(m.ones_for(0x1000), m.ones_for(0x1004));
  EXPECT_EQ(m.ones_for(0x1000), m.ones_for(0x103F));
  // Next block differs (with overwhelming probability for these params).
}

TEST(DataValueModel, OnesWithinValidRange) {
  DataValueModel m({.mean_density = 0.5, .stddev_density = 0.3});
  for (std::uint64_t b = 0; b < 5000; ++b) {
    const auto n = m.ones_for(b * 64);
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 511u);
  }
}

TEST(DataValueModel, MeanTracksDensity) {
  DataValueModel m({.mean_density = 0.25, .stddev_density = 0.05});
  double acc = 0;
  const int n = 20000;
  for (int b = 0; b < n; ++b) acc += m.ones_for(static_cast<std::uint64_t>(b) * 64);
  EXPECT_NEAR(acc / n / 512.0, 0.25, 0.01);
}

TEST(DataValueModel, DifferentSeedsGiveDifferentAssignments) {
  DataValueModel a({.mean_density = 0.35, .stddev_density = 0.1}, 512, 1);
  DataValueModel b({.mean_density = 0.35, .stddev_density = 0.1}, 512, 2);
  int diff = 0;
  for (std::uint64_t blk = 0; blk < 100; ++blk)
    diff += a.ones_for(blk * 64) != b.ones_for(blk * 64) ? 1 : 0;
  EXPECT_GT(diff, 50);
}

// reseat() re-points a model: afterwards it answers every block exactly as
// a model built with the new (spec, line_bits, seed) does, whatever it
// answered before -- including when it is pointed back.
TEST(DataValueModel, ReseatMatchesAFreshModel) {
  const OnesDensitySpec a{.mean_density = 0.35, .stddev_density = 0.1};
  const OnesDensitySpec b{.mean_density = 0.6, .stddev_density = 0.2};
  struct Target {
    OnesDensitySpec spec;
    std::uint64_t line_bits;
    std::uint64_t seed;
  };
  DataValueModel m(a, 512, 1);
  for (const Target& t : {Target{a, 512, 2}, Target{b, 512, 2},
                          Target{b, 256, 2}, Target{a, 512, 1}}) {
    for (std::uint64_t blk = 0; blk < 100; ++blk) m.ones_for(blk * 64);
    m.reseat(t.spec, t.line_bits, t.seed);
    const DataValueModel fresh(t.spec, t.line_bits, t.seed);
    EXPECT_EQ(m.line_bits(), fresh.line_bits());
    for (std::uint64_t blk = 0; blk < 100; ++blk)
      EXPECT_EQ(m.ones_for(blk * 64), fresh.ones_for(blk * 64)) << blk;
    for (std::uint64_t blk = 0; blk < 5; ++blk)
      EXPECT_EQ(m.payload_for(blk * 64), fresh.payload_for(blk * 64)) << blk;
  }
}

// ones_for computes only the cosine half of Box-Muller. It must return
// what the full Rng::normal draw (which also computes and caches the sine
// half) gives from the same per-block Rng: the formula the model used
// before, kept here as the reference.
std::uint32_t ones_via_rng_normal(const OnesDensitySpec& spec,
                                  std::uint64_t line_bits,
                                  std::uint64_t seed,
                                  std::uint64_t line_addr) {
  const std::uint64_t block = line_addr >> 6;
  common::Rng rng(seed ^ (block * 0x9e3779b97f4a7c15ULL));
  const double nbits = static_cast<double>(line_bits);
  const double density = rng.normal(spec.mean_density, spec.stddev_density);
  const double clamped = std::clamp(density, 0.01, 0.99);
  const double ones = std::round(clamped * nbits);
  return static_cast<std::uint32_t>(std::clamp(ones, 1.0, nbits - 1.0));
}

TEST(DataValueModel, CosineDrawMatchesNormal) {
  const OnesDensitySpec specs[] = {
      {},  // the default 0.35 / 0.12
      {.mean_density = 0.5, .stddev_density = 0.3},
      {.mean_density = 0.1, .stddev_density = 0.05},
      {.mean_density = 0.9, .stddev_density = 0.4},  // clamps often
      {.mean_density = 0.35, .stddev_density = 0.0},
  };
  common::Rng addrs(11);
  std::uint64_t compared = 0;
  for (const OnesDensitySpec& spec : specs) {
    for (const std::uint64_t line_bits : {128u, 512u, 1024u}) {
      for (const std::uint64_t seed : {0xD5EEDull, 0xABCDull ^ 7, 0ull}) {
        const DataValueModel m(spec, line_bits, seed);
        for (int i = 0; i < 25000; ++i) {
          // Dense low blocks and addresses spread over the whole space.
          const std::uint64_t addr =
              i % 2 == 0 ? static_cast<std::uint64_t>(i) * 64 : addrs.next();
          ASSERT_EQ(m.ones_for(addr),
                    ones_via_rng_normal(spec, line_bits, seed, addr))
              << "addr " << addr << " line_bits " << line_bits << " seed "
              << seed << " mean " << spec.mean_density;
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 1000000u);
}

TEST(DataValueModel, PayloadPopcountMatchesOnes) {
  DataValueModel m({.mean_density = 0.4, .stddev_density = 0.1});
  for (std::uint64_t blk = 0; blk < 50; ++blk) {
    const auto addr = blk * 64;
    EXPECT_EQ(m.payload_for(addr).count_ones(), m.ones_for(addr));
  }
}

TEST(DataValueModel, PayloadDeterministic) {
  DataValueModel m({.mean_density = 0.4, .stddev_density = 0.1});
  EXPECT_EQ(m.payload_for(0x4000), m.payload_for(0x4000));
}

TEST(DataValueModel, CustomLineBits) {
  DataValueModel m({.mean_density = 0.5, .stddev_density = 0.0}, 128);
  EXPECT_EQ(m.payload_for(0).size(), 128u);
  EXPECT_NEAR(m.ones_for(0), 64u, 2);
}

}  // namespace
}  // namespace reap::trace
