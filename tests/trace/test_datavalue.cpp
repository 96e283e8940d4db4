#include "reap/trace/datavalue.hpp"

#include <gtest/gtest.h>

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

TEST(DataValueModel, ReseatMatchesAFreshModel) {
  const OnesDensitySpec spec{.mean_density = 0.35, .stddev_density = 0.1};
  DataValueModel m(spec, 512, 1);
  for (std::uint64_t blk = 0; blk < 100; ++blk) m.ones_for(blk * 64);
  // A new seed must not be answered from the old seed's memo entries.
  m.reseat(spec, 512, 2);
  const DataValueModel fresh(spec, 512, 2);
  for (std::uint64_t blk = 0; blk < 100; ++blk)
    EXPECT_EQ(m.ones_for(blk * 64), fresh.ones_for(blk * 64)) << blk;
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
