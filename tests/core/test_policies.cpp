// Unit tests driving the read-path policy impls directly on synthetic
// cache sets, verifying the accumulation bookkeeping, ledger entries, and
// energy event counts of each policy.
#include "reap/core/policy_impl.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "reap/reliability/binomial.hpp"
#include "reap/sim/simd.hpp"

namespace reap::core {
namespace {

constexpr double kPrd = 1e-8;

// A 4-way set's columns, sized like the cache's own (padded to the
// vector width).
constexpr std::size_t kCols = sim::simd::padded_ways(4);

class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture() : model_(kPrd, 1, 512) {
    ctx_.model = &model_;
    ctx_.ledger = &ledger_;
    ctx_.ways = 4;
    ctx_.write_fail_per_cell = 1e-9;
    ctx_.codeword_bits = 523;
    // 4-way set: ways 0..2 valid with 100 ones each, way 3 invalid.
    for (int w = 0; w < 3; ++w) {
      tagv_[w] = (std::uint64_t(10 + w) << 1) | 1;
      rel_[w].ones = 100;
    }
  }

  sim::CacheSetView ways() { return {tagv_, rel_, 4}; }

  reliability::UncorrectableModel model_;
  reliability::FailureLedger ledger_;
  PolicyContext ctx_;
  std::uint64_t tagv_[kCols] = {};
  sim::LineRel rel_[kCols];
};

TEST_F(PolicyFixture, FactoryProducesAllKinds) {
  for (const PolicyKind k : all_policies()) {
    AnyPolicyImpl p(k, ctx_);
    EXPECT_EQ(p.visit([](auto& impl) {
                return std::remove_reference_t<decltype(impl)>::kKind;
              }),
              k);
  }
}

TEST_F(PolicyFixture, PolicyNamesRoundTrip) {
  for (const PolicyKind k : all_policies()) {
    const auto parsed = policy_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(policy_from_string("bogus").has_value());
}

// ----------------------------------------------------------- conventional

TEST_F(PolicyFixture, ConventionalConcealedReadsAccumulate) {
  ConventionalPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), /*hit_way=*/0);
  EXPECT_EQ(rel_[0].reads_since_check, 0u);  // checked
  EXPECT_EQ(rel_[1].reads_since_check, 1u);  // concealed
  EXPECT_EQ(rel_[2].reads_since_check, 1u);
  EXPECT_EQ(rel_[3].reads_since_check, 0u);  // invalid: untouched

  p.on_read_lookup(ways(), /*hit_way=*/-1);  // miss: everyone concealed
  EXPECT_EQ(rel_[0].reads_since_check, 1u);
  EXPECT_EQ(rel_[1].reads_since_check, 2u);
}

TEST_F(PolicyFixture, ConventionalChecksOnlyHitWay) {
  ConventionalPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 1);
  EXPECT_EQ(ledger_.checks(), 1u);
  EXPECT_EQ(p.events().ecc_decodes, 1u);
  p.on_read_lookup(ways(), -1);  // miss: no decode at all
  EXPECT_EQ(ledger_.checks(), 1u);
  EXPECT_EQ(p.events().ecc_decodes, 1u);
}

TEST_F(PolicyFixture, ConventionalFailureUsesEq3) {
  ConventionalPolicyImpl p(ctx_);
  // Accumulate 5 concealed reads on way 1 (6 misses would also bump others).
  for (int i = 0; i < 5; ++i) p.on_read_lookup(ways(), 0);
  ledger_.reset();
  p.on_read_lookup(ways(), 1);  // way 1 now read with N = 5 + 1
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block_acc(100, 6, kPrd), 1e-20);
  EXPECT_EQ(ledger_.max_concealed(), 5u);
}

TEST_F(PolicyFixture, ConventionalReadsAllWaysEvenOnMiss) {
  ConventionalPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), -1);
  EXPECT_EQ(p.events().way_data_reads, 4u);
  EXPECT_EQ(p.events().tag_reads, 1u);
  EXPECT_EQ(p.events().lookups, 1u);
}

// ------------------------------------------------------------------- reap

TEST_F(PolicyFixture, ReapDecodesEveryWayEveryAccess) {
  ReapPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.events().ecc_decodes, 4u);
  p.on_read_lookup(ways(), -1);
  EXPECT_EQ(p.events().ecc_decodes, 8u);
}

TEST_F(PolicyFixture, ReapFailureUsesEq6) {
  ReapPolicyImpl p(ctx_);
  for (int i = 0; i < 5; ++i) p.on_read_lookup(ways(), 0);
  ledger_.reset();
  p.on_read_lookup(ways(), 1);
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block_reap(100, 6, kPrd), 1e-20);
}

TEST_F(PolicyFixture, ReapStrictlyBeatsConventionalOnAccumulatedLines) {
  ConventionalPolicyImpl pc(ctx_);
  reliability::FailureLedger ledger2;
  PolicyContext ctx2 = ctx_;
  ctx2.ledger = &ledger2;
  ReapPolicyImpl pr(ctx2);

  std::uint64_t tagv2[kCols];
  sim::LineRel rel2[kCols];
  for (std::size_t w = 0; w < kCols; ++w) {
    tagv2[w] = tagv_[w];
    rel2[w] = rel_[w];
  }
  const sim::CacheSetView set2{tagv2, rel2, 4};
  for (int i = 0; i < 50; ++i) {
    pc.on_read_lookup(ways(), 0);
    pr.on_read_lookup(set2, 0);
  }
  pc.on_read_lookup(ways(), 1);
  pr.on_read_lookup(set2, 1);
  EXPECT_GT(ledger_.total_failure_prob(), ledger2.total_failure_prob() * 10);
}

// ----------------------------------------------------------------- serial

TEST_F(PolicyFixture, SerialNeverCreatesConcealedReads) {
  SerialPolicyImpl p(ctx_);
  for (int i = 0; i < 10; ++i) p.on_read_lookup(ways(), 0);
  EXPECT_EQ(rel_[1].reads_since_check, 0u);
  EXPECT_EQ(rel_[2].reads_since_check, 0u);
}

TEST_F(PolicyFixture, SerialReadsOnlyHitWay) {
  SerialPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 2);
  EXPECT_EQ(p.events().way_data_reads, 1u);
  p.on_read_lookup(ways(), -1);
  EXPECT_EQ(p.events().way_data_reads, 1u);  // miss reads nothing
}

TEST_F(PolicyFixture, SerialFailureIsSingleRead) {
  SerialPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block(100, kPrd), 1e-20);
}

// ---------------------------------------------------------------- restore

TEST_F(PolicyFixture, RestoreWritesEveryValidWay) {
  RestorePolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.events().way_data_writes, 3u);  // 3 valid ways restored
  EXPECT_EQ(p.events().way_data_reads, 4u);
}

TEST_F(PolicyFixture, RestoreClearsAccumulationEverywhere) {
  RestorePolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  for (const auto& line : rel_) EXPECT_EQ(line.reads_since_check, 0u);
}

TEST_F(PolicyFixture, RestoreChargesWriteFailures) {
  RestorePolicyImpl p(ctx_);
  EXPECT_GT(p.restore_failure_prob(), 0.0);
  p.on_read_lookup(ways(), 0);
  // 1 checked read (single-read formula) + 3 restore failures... the hit
  // way's entry already folds its own restore failure in.
  const double expected =
      reliability::p_uncorrectable_block(100, kPrd) +
      3.0 * p.restore_failure_prob();
  EXPECT_NEAR(ledger_.total_failure_prob(), expected, expected * 1e-9);
}

// ------------------------------------------------------------------ scrub

TEST_F(PolicyFixture, ScrubEveryOneMatchesReapDecodeCount) {
  ctx_.scrub_every = 1;
  ScrubPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.events().ecc_decodes, 4u);  // all ways, like REAP
  EXPECT_EQ(p.scrubs_performed(), 1u);
  for (const auto& line : rel_) EXPECT_EQ(line.reads_since_check, 0u);
}

TEST_F(PolicyFixture, ScrubPeriodicityHonored) {
  ctx_.scrub_every = 4;
  ScrubPolicyImpl p(ctx_);
  for (int i = 0; i < 8; ++i) p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.scrubs_performed(), 2u);
  // Non-scrub accesses decode only the hit way: 6 x 1 + 2 x 4.
  EXPECT_EQ(p.events().ecc_decodes, 6u + 8u);
}

TEST_F(PolicyFixture, ScrubClosesConcealedWindowsEarly) {
  ctx_.scrub_every = 3;
  ScrubPolicyImpl p(ctx_);
  // Two conventional lookups accumulate on ways 1 and 2; the third scrubs.
  p.on_read_lookup(ways(), 0);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(rel_[1].reads_since_check, 2u);
  ledger_.reset();
  p.on_read_lookup(ways(), 0);  // scrub access
  EXPECT_EQ(rel_[1].reads_since_check, 0u);
  EXPECT_EQ(rel_[2].reads_since_check, 0u);
  // Ledger saw: the hit way (N=1) plus two scrubbed ways (N=3 windows).
  EXPECT_EQ(ledger_.checks(), 3u);
}

TEST_F(PolicyFixture, ScrubBetweenConventionalAndReap) {
  // Total accumulated failure mass: conventional >= scrub(16) >= reap.
  auto run_total = [&](PolicyKind kind, std::uint64_t every) {
    reliability::FailureLedger ledger;
    PolicyContext ctx = ctx_;
    ctx.ledger = &ledger;
    ctx.scrub_every = every;
    AnyPolicyImpl policy(kind, ctx);
    std::uint64_t tagv[kCols];
    sim::LineRel rel[kCols];
    for (std::size_t w = 0; w < kCols; ++w) {
      tagv[w] = tagv_[w];
      rel[w] = rel_[w];
    }
    for (int i = 0; i < 200; ++i) {
      policy.visit([&](auto& p) {
        p.on_read_lookup({tagv, rel, 4}, i % 50 == 0 ? 1 : 0);
      });
    }
    return ledger.total_failure_prob();
  };
  const double conv = run_total(PolicyKind::conventional_parallel, 0);
  const double scrub = run_total(PolicyKind::scrub_piggyback, 16);
  const double reap = run_total(PolicyKind::reap, 0);
  EXPECT_GT(conv, scrub);
  EXPECT_GT(scrub, reap);
}

// ------------------------------------------------------- shared behaviour

TEST_F(PolicyFixture, WriteLookupCountsEncodeOnHit) {
  ConventionalPolicyImpl p(ctx_);
  p.on_write_lookup(ways(), 1);
  EXPECT_EQ(p.events().way_data_writes, 1u);
  EXPECT_EQ(p.events().ecc_encodes, 1u);
  p.on_write_lookup(ways(), -1);
  EXPECT_EQ(p.events().way_data_writes, 1u);  // miss writes nothing here
  EXPECT_EQ(p.events().lookups, 2u);
}

TEST_F(PolicyFixture, FillCountsAsWrite) {
  ReapPolicyImpl p(ctx_);
  p.on_fill(ways(), 3);
  EXPECT_EQ(p.events().way_data_writes, 1u);
  EXPECT_EQ(p.events().ecc_encodes, 1u);
}

TEST_F(PolicyFixture, EvictionCheckOffByDefault) {
  ConventionalPolicyImpl p(ctx_);
  rel_[0].reads_since_check = 100;
  p.on_evict(ways(), 0, /*dirty=*/true);
  EXPECT_EQ(ledger_.checks(), 0u);
  EXPECT_EQ(p.events().ecc_decodes, 0u);
}

TEST_F(PolicyFixture, EvictionCheckExtensionChargesDirtyVictims) {
  ctx_.check_on_dirty_eviction = true;
  ConventionalPolicyImpl p(ctx_);
  rel_[0].reads_since_check = 99;
  p.on_evict(ways(), 0, /*dirty=*/true);
  EXPECT_EQ(ledger_.checks(), 1u);
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block_acc(100, 100, kPrd), 1e-18);
  // Clean victims stay free.
  p.on_evict(ways(), 1, /*dirty=*/false);
  EXPECT_EQ(ledger_.checks(), 1u);
}

TEST_F(PolicyFixture, ResetEventsZeroes) {
  ReapPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  p.reset_events();
  EXPECT_EQ(p.events().ecc_decodes, 0u);
  EXPECT_EQ(p.events().lookups, 0u);
}

}  // namespace
}  // namespace reap::core
