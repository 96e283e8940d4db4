#include "reap/common/histogram.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

namespace reap::common {
namespace {

TEST(LogHistogram, ZeroGetsOwnBin) {
  LogHistogram h;
  h.add(0, 1.0);
  h.add(0, 2.0);
  const auto bins = h.nonempty_bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_EQ(bins[0].lo, 0u);
  EXPECT_EQ(bins[0].hi, 0u);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_DOUBLE_EQ(bins[0].weight, 3.0);
}

TEST(LogHistogram, ValuesLandInCoveringBin) {
  LogHistogram h(4, 1000000);
  for (std::uint64_t v : {1ull, 5ull, 42ull, 999ull, 123456ull}) {
    LogHistogram fresh(4, 1000000);
    fresh.add(v);
    const auto bins = fresh.nonempty_bins();
    ASSERT_EQ(bins.size(), 1u) << v;
    EXPECT_LE(bins[0].lo, v);
    EXPECT_GE(bins[0].hi, v);
  }
}

TEST(LogHistogram, BinsArePartition) {
  // Every value in [1, 10000] must fall in exactly one bin, and bins must
  // be contiguous.
  LogHistogram h(8, 10000);
  for (std::uint64_t v = 0; v <= 10000; ++v) h.add(v);
  const auto bins = h.nonempty_bins();
  std::uint64_t expected_lo = 0;
  std::uint64_t total = 0;
  for (const auto& b : bins) {
    EXPECT_EQ(b.lo, expected_lo);
    expected_lo = b.hi + 1;
    total += b.count;
  }
  EXPECT_EQ(total, 10001u);
}

TEST(LogHistogram, OverflowClampsAndCounts) {
  LogHistogram h(4, 100);
  h.add(1000, 1.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_EQ(h.max_sample(), 1000u);
  const auto bins = h.nonempty_bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_GE(bins[0].hi, 100u);
}

TEST(LogHistogram, TotalsAccumulate) {
  LogHistogram h;
  h.add(1, 0.5);
  h.add(10, 0.25);
  h.add(100, 0.25);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_DOUBLE_EQ(h.total_weight(), 1.0);
}

TEST(LogHistogram, RenderContainsLabels) {
  LogHistogram h;
  h.add(0);
  h.add(7, 0.125);
  const std::string s = h.render("freq", "fail");
  EXPECT_NE(s.find("freq"), std::string::npos);
  EXPECT_NE(s.find("fail"), std::string::npos);
}

TEST(LogHistogram, RenderNormalization) {
  LogHistogram h;
  for (int i = 0; i < 200; ++i) h.add(0);
  h.add(50);
  // Normalized to the zero-bin count, the zero row shows 1 and the other
  // row shows 0.005.
  const std::string s = h.render("freq", "fail", 200.0);
  EXPECT_NE(s.find("0.005"), std::string::npos);
}

// clear() keeps the bin layout and forgets the samples: what it leaves
// must be indistinguishable from a fresh histogram of the same shape, for
// the default shape (whose edges are computed once and shared) and
// another.
TEST(LogHistogram, ClearMatchesFresh) {
  const auto same = [](const LogHistogram& a, const LogHistogram& b) {
    EXPECT_EQ(a.total_count(), b.total_count());
    EXPECT_EQ(a.total_weight(), b.total_weight());
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.max_sample(), b.max_sample());
    EXPECT_EQ(a.render("n", "w"), b.render("n", "w"));
    const auto x = a.nonempty_bins();
    const auto y = b.nonempty_bins();
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::tie(x[i].lo, x[i].hi, x[i].count),
                std::tie(y[i].lo, y[i].hi, y[i].count));
      EXPECT_EQ(x[i].weight, y[i].weight);
    }
  };
  for (const auto& [per_decade, max] :
       {std::pair<unsigned, std::uint64_t>{8, 10'000'000}, {3, 5000}}) {
    LogHistogram used(per_decade, max);
    for (std::uint64_t v : {0ull, 1ull, 7ull, 99ull, 4999ull, 20'000'000ull})
      used.add(v, 0.25);
    used.clear();
    const LogHistogram fresh(per_decade, max);
    same(used, fresh);
    // And both bin the same samples the same way afterwards.
    LogHistogram reference(per_decade, max);
    for (std::uint64_t v = 0; v <= 6000; v += 37) {
      used.add(v, 1e-9 * double(v));
      reference.add(v, 1e-9 * double(v));
    }
    same(used, reference);
  }
}

TEST(LinearHistogram, BinsAndEdges) {
  LinearHistogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.nbins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
  h.add(0.5);
  h.add(9.99);
  h.add(10.0);   // clamps to last bin
  h.add(-1.0);   // clamps to first bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
}

}  // namespace
}  // namespace reap::common
