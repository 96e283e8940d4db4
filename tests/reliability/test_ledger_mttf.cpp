#include <gtest/gtest.h>

#include <cmath>

#include "reap/reliability/ledger.hpp"
#include "reap/reliability/mttf.hpp"

namespace reap::reliability {
namespace {

TEST(Ledger, AccumulatesChecksAndWeight) {
  FailureLedger l;
  l.record_check(0, 1e-12);
  l.record_check(50, 2e-12);
  l.record_unattributed(3e-12);
  EXPECT_EQ(l.checks(), 3u);
  EXPECT_NEAR(l.total_failure_prob(), 6e-12, 1e-24);
  EXPECT_EQ(l.max_concealed(), 50u);
}

TEST(Ledger, HistogramSeparatesConcealedCounts) {
  FailureLedger l;
  for (int i = 0; i < 100; ++i) l.record_check(0, 1e-13);
  l.record_check(5000, 1e-9);
  const auto bins = l.histogram().nonempty_bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].count, 100u);
  EXPECT_EQ(bins[1].count, 1u);
  // The rare high-accumulation event dominates the failure weight -- the
  // Fig. 3 phenomenon in miniature.
  EXPECT_GT(bins[1].weight, bins[0].weight * 10.0);
}

TEST(Ledger, UnattributedSkipsHistogram) {
  FailureLedger l;
  l.record_unattributed(1e-9);
  EXPECT_EQ(l.histogram().total_count(), 0u);
  EXPECT_EQ(l.checks(), 1u);
}

TEST(Ledger, ResetClearsEverything) {
  FailureLedger l;
  l.record_check(10, 1e-9);
  l.reset();
  EXPECT_EQ(l.checks(), 0u);
  EXPECT_EQ(l.total_failure_prob(), 0.0);
  EXPECT_EQ(l.histogram().total_count(), 0u);
}

// A ledger reset between passes must leave nothing a fresh ledger would
// not have: totals, check count, and every histogram bin.
TEST(Ledger, ResetMatchesAFreshLedger) {
  FailureLedger used;
  for (std::uint64_t c : {0ull, 3ull, 3ull, 250ull, 90'000'000ull})
    used.record_check(c, 1e-9 * double(c + 1));
  used.record_unattributed(1e-6);
  used.reset();
  const auto record = [](FailureLedger& l) {
    for (std::uint64_t c = 0; c < 5000; c += 7) l.record_check(c, 1e-12 * c);
    l.record_unattributed(1e-7);
  };
  FailureLedger fresh;
  EXPECT_EQ(used.histogram().render("n", "w"),
            fresh.histogram().render("n", "w"));
  EXPECT_EQ(used.max_concealed(), 0u);
  EXPECT_EQ(used.histogram().overflow(), 0u);
  record(used);
  record(fresh);
  EXPECT_EQ(used.total_failure_prob(), fresh.total_failure_prob());
  EXPECT_EQ(used.checks(), fresh.checks());
  EXPECT_EQ(used.max_concealed(), fresh.max_concealed());
  EXPECT_EQ(used.histogram().total_weight(), fresh.histogram().total_weight());
  EXPECT_EQ(used.histogram().render("n", "w"),
            fresh.histogram().render("n", "w"));
}

TEST(Mttf, BasicRateArithmetic) {
  const auto r = compute_mttf(1e-6, 2.0);
  EXPECT_DOUBLE_EQ(r.failure_rate_per_s, 5e-7);
  EXPECT_DOUBLE_EQ(r.mttf_seconds, 2e6);
}

TEST(Mttf, NoFailuresMeansInfiniteMttf) {
  const auto r = compute_mttf(0.0, 1.0);
  EXPECT_TRUE(std::isinf(r.mttf_seconds));
  EXPECT_EQ(r.failure_rate_per_s, 0.0);
}

TEST(Mttf, RatioIsInverseRateRatio) {
  const auto conv = compute_mttf(171e-6, 1.0);
  const auto reap = compute_mttf(1e-6, 1.0);
  EXPECT_NEAR(mttf_ratio(reap, conv), 171.0, 1e-9);
  EXPECT_NEAR(mttf_ratio(conv, reap), 1.0 / 171.0, 1e-12);
}

TEST(Mttf, RatioWithDifferentDurations) {
  // Rates normalize by time, so halving one run's time doubles its rate.
  const auto a = compute_mttf(1e-6, 1.0);
  const auto b = compute_mttf(1e-6, 2.0);
  EXPECT_NEAR(mttf_ratio(b, a), 2.0, 1e-12);
}

TEST(Mttf, DegenerateRatios) {
  const auto none = compute_mttf(0.0, 1.0);
  const auto some = compute_mttf(1e-9, 1.0);
  EXPECT_EQ(mttf_ratio(none, none), 1.0);
  EXPECT_TRUE(std::isinf(mttf_ratio(none, some)));
  EXPECT_EQ(mttf_ratio(some, none), 0.0);
}

}  // namespace
}  // namespace reap::reliability
