// Lazy ones counts, pinned from outside the resolver.
//
// An L2 fill leaves the line's ones count undrawn; the first policy that
// reads the count draws it for every reliability lane; a write hit keeps
// it as it is. The hooks here drive MemoryHierarchy with the real policy
// implementations, one per lane, and inspect the raw reliability columns
// before and after every hook call against a shadow copy of their own:
//   - every drawn count equals DataValueModel::ones_for of the line's
//     block, with the block address built here from the line's tag and
//     set (not through the cache);
//   - a fill installs the undrawn marker in every lane;
//   - nothing outside a hook call (fills, write hits) changes a count;
//   - within a hook call a count changes only from undrawn to drawn, in
//     every lane at once, at most once per line lifetime, and exactly for
//     the lines the policies read: the hit way of a read lookup, every
//     valid way of a scrub access, a dirty victim under the eviction
//     check.
// The reference model (test_reference_model.cpp) pins every count a check
// reads, but it computes counts on demand and has no notion of when one is
// drawn; this suite pins the timing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reap/common/rng.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/hierarchy.hpp"
#include "reap/trace/datavalue.hpp"
#include "reap/trace/synth.hpp"

namespace reap::core {
namespace {

struct LanePolicy {
  PolicyKind kind;
  std::uint64_t scrub_every = 64;
  bool check_on_dirty_eviction = true;
};

std::string describe(const std::vector<LanePolicy>& lanes) {
  std::string s;
  for (const LanePolicy& l : lanes)
    s += to_string(l.kind) + "/" + std::to_string(l.scrub_every) +
         (l.check_on_dirty_eviction ? "/dc " : " ");
  return s;
}

std::uint64_t scrubs_of(AnyPolicyImpl& policy) {
  return policy.visit([](auto& p) -> std::uint64_t {
    if constexpr (requires { p.scrubs_performed(); })
      return p.scrubs_performed();
    else
      return 0;
  });
}

// Static L2 hooks: the policies of a pass, one per lane, behind the checks
// described at the top of the file.
class CheckingHooks {
 public:
  CheckingHooks(std::vector<AnyPolicyImpl>& policies,
                std::vector<LanePolicy> lanes, const sim::CacheConfig& l2,
                const trace::DataValueModel& values)
      : policies_(policies),
        lanes_(std::move(lanes)),
        ways_(l2.ways),
        offset_bits_(static_cast<unsigned>(std::countr_zero(l2.block_bytes))),
        index_bits_(static_cast<unsigned>(std::countr_zero(l2.sets()))),
        values_(values),
        shadow_(l2.sets() * l2.ways) {}

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    expect_unchanged_since_last_call(set);
    std::vector<bool> reads(ways_, false);
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const std::uint64_t scrubs = scrubs_of(policies_[l]);
      policies_[l].visit(
          [&](auto& p) { p.on_read_lookup(set.lane(l), hit_way); });
      if (scrubs_of(policies_[l]) != scrubs) {
        reads.assign(ways_, true);  // a scrub access reads every way
        ++scrub_accesses;
      }
    }
    if (hit_way >= 0) reads[static_cast<std::size_t>(hit_way)] = true;
    record_call(set, reads);
  }

  void on_write_lookup(sim::CacheSetView set, int hit_way) {
    expect_unchanged_since_last_call(set);
    for (std::size_t l = 0; l < lanes_.size(); ++l)
      policies_[l].visit(
          [&](auto& p) { p.on_write_lookup(set.lane(l), hit_way); });
    record_call(set, std::vector<bool>(ways_, false));
    if (hit_way >= 0 &&
        set.rel(static_cast<std::size_t>(hit_way)).ones == sim::kOnesUndrawn)
      ++undrawn_write_hits;
  }

  void on_fill(sim::CacheSetView set, std::size_t way) {
    Line& line = shadow_[set.set_index() * ways_ + way];
    line = Line{.valid = true, .tag = set.tag(way)};
    expect_unchanged_since_last_call(set);  // the filled way included
    ++fills;
    for (std::size_t l = 0; l < lanes_.size(); ++l)
      policies_[l].visit([&](auto& p) { p.on_fill(set.lane(l), way); });
    record_call(set, std::vector<bool>(ways_, false));
  }

  void on_evict(sim::CacheSetView set, std::size_t way, bool dirty) {
    expect_unchanged_since_last_call(set);
    bool checked = false;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      policies_[l].visit(
          [&](auto& p) { p.on_evict(set.lane(l), way, dirty); });
      checked |= dirty && lanes_[l].check_on_dirty_eviction;
    }
    std::vector<bool> reads(ways_, false);
    reads[way] = checked;
    if (checked) ++checked_evictions;
    record_call(set, reads);
  }

  std::uint64_t fills = 0, draws = 0, undrawn_write_hits = 0,
                scrub_accesses = 0, checked_evictions = 0;

 private:
  // The shadow of one line: what the test last saw in its columns.
  struct Line {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint32_t ones = sim::kOnesUndrawn;
  };

  std::uint64_t block_addr(std::size_t set, std::uint64_t tag) const {
    return (tag << (offset_bits_ + index_bits_)) |
           (static_cast<std::uint64_t>(set) << offset_bits_);
  }

  // Every lane's raw count of `way`; all lanes must agree.
  std::uint32_t raw_ones(sim::CacheSetView set, std::size_t way) const {
    const std::uint32_t ones = set.rel(way).ones;
    for (std::size_t l = 1; l < lanes_.size(); ++l)
      EXPECT_EQ(set.lane(l).rel(way).ones, ones)
          << "lane " << l << " disagrees with lane 0 on set "
          << set.set_index() << " way " << way;
    return ones;
  }

  // Fills and write hits happen between hook calls: neither may draw.
  void expect_unchanged_since_last_call(sim::CacheSetView set) const {
    for (std::size_t w = 0; w < ways_; ++w) {
      const Line& line = shadow_[set.set_index() * ways_ + w];
      ASSERT_EQ(set.valid(w), line.valid) << "way " << w;
      if (!line.valid) continue;
      ASSERT_EQ(set.tag(w), line.tag) << "way " << w;
      ASSERT_EQ(raw_ones(set, w), line.ones)
          << "a count changed outside a policy read: set "
          << set.set_index() << " way " << w;
    }
  }

  // After the policies ran: exactly the valid ways in `reads` are drawn,
  // each drawn count is the model's, and an undrawn count left undrawn
  // by the call is still undrawn.
  void record_call(sim::CacheSetView set, const std::vector<bool>& reads) {
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& line = shadow_[set.set_index() * ways_ + w];
      if (!set.valid(w)) continue;
      const std::uint32_t ones = raw_ones(set, w);
      if (reads[w]) {
        EXPECT_NE(ones, sim::kOnesUndrawn)
            << "a read left set " << set.set_index() << " way " << w
            << " undrawn";
      }
      if (ones != line.ones) {
        EXPECT_EQ(line.ones, sim::kOnesUndrawn)
            << "drawn twice in one lifetime: set " << set.set_index()
            << " way " << w;
        EXPECT_TRUE(reads[w]) << "drawn without a read: set "
                              << set.set_index() << " way " << w;
        ++draws;
      }
      if (ones != sim::kOnesUndrawn) {
        EXPECT_EQ(ones, values_.ones_for(block_addr(set.set_index(),
                                                    set.tag(w))))
            << "set " << set.set_index() << " way " << w;
      }
      line.ones = ones;
    }
  }

  std::vector<AnyPolicyImpl>& policies_;
  std::vector<LanePolicy> lanes_;
  std::size_t ways_;
  unsigned offset_bits_, index_bits_;
  const trace::DataValueModel& values_;
  std::vector<Line> shadow_;  // sets x ways
};

// A 64 KB 8-way L2 under 4 KB 2-way L1s: small enough that a short trace
// evicts constantly, dirty lines included.
sim::HierarchyConfig small_hierarchy(sim::ReplacementKind replacement) {
  sim::HierarchyConfig h;
  h.l1i.capacity_bytes = h.l1d.capacity_bytes = 4 * 1024;
  h.l1i.ways = h.l1d.ways = 2;
  h.l2.capacity_bytes = 64 * 1024;
  h.l2.replacement = replacement;
  return h;
}

enum class Trace { random, hammer };

// `ops` operations: loads, stores and instruction fetches at random
// addresses over four times the L2, or mostly a SetHammer sweep (hot
// blocks one L2 set period apart, rarely-touched residents in the same
// set) with random traffic mixed in.
void drive(sim::MemoryHierarchy& hier, CheckingHooks& hooks, Trace trace,
           std::uint64_t seed, int ops) {
  common::Rng rng(seed);
  const sim::CacheConfig& l2 = hier.config().l2;
  const std::uint64_t footprint = 4 * l2.capacity_bytes;
  trace::SetHammer hammer(0x4000'0000, l2.sets() * l2.block_bytes,
                          /*hot_blocks=*/5, /*resident_blocks=*/2,
                          /*resident_prob=*/0.01);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t addr = trace == Trace::hammer && rng.chance(0.8)
                                   ? hammer.next(rng)
                                   : 0x1000'0000 + rng.below(footprint);
    const double kind = rng.uniform();
    const sim::L2Hint hint{static_cast<std::uint32_t>(hier.l2().set_of(addr)),
                           hier.l2().tagv_of(addr)};
    if (kind < 0.1)
      hier.inst_fetch(addr, hooks, hint);
    else if (kind < 0.4)
      hier.store(addr, hooks, hint);
    else
      hier.load(addr, hooks, hint);
  }
}

TEST(LazyOnes, DrawnOnlyWhenAPolicyReadsItAndEqualToTheModel) {
  using PK = PolicyKind;
  const std::vector<std::vector<LanePolicy>> passes = {
      {{PK::conventional_parallel}},
      {{PK::reap}},
      {{PK::serial_tag_then_data}},
      {{PK::disruptive_restore}},
      {{PK::scrub_piggyback, 1}},
      {{PK::scrub_piggyback, 3}},
      {{PK::scrub_piggyback, 64}},
      {{PK::conventional_parallel}, {PK::reap}, {PK::scrub_piggyback, 3}},
      {{PK::serial_tag_then_data, 64, false},
       {PK::disruptive_restore},
       {PK::scrub_piggyback, 64, false}},
      {{PK::scrub_piggyback, 1, false},
       {PK::conventional_parallel, 64, false},
       {PK::reap}},
  };
  const reliability::UncorrectableModel model(1e-8, 1, 512);
  const trace::DataValueModel values(
      {.mean_density = 0.35, .stddev_density = 0.12}, 512, 0xABCD);
  std::uint64_t seed = 1;
  for (const sim::ReplacementKind replacement :
       {sim::ReplacementKind::lru, sim::ReplacementKind::fifo,
        sim::ReplacementKind::random_repl}) {
    // One hierarchy per replacement kind, reset for every pass, so resets
    // across lane counts are covered too.
    sim::MemoryHierarchy hier(small_hierarchy(replacement));
    for (const Trace trace : {Trace::random, Trace::hammer}) {
      for (const std::vector<LanePolicy>& lanes : passes) {
        SCOPED_TRACE(testing::Message()
                     << "replacement " << static_cast<int>(replacement)
                     << (trace == Trace::hammer ? " hammer " : " random ")
                     << describe(lanes));
        ++seed;
        hier.reset(seed, lanes.size());
        hier.set_l2_ones_provider(sim::OnesProvider(values));
        std::vector<reliability::FailureLedger> ledgers(lanes.size());
        std::vector<AnyPolicyImpl> policies;
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          PolicyContext ctx;
          ctx.model = &model;
          ctx.ledger = &ledgers[l];
          ctx.ways = hier.config().l2.ways;
          ctx.write_fail_per_cell = 1e-9;
          ctx.check_on_dirty_eviction = lanes[l].check_on_dirty_eviction;
          ctx.scrub_every = lanes[l].scrub_every;
          policies.emplace_back(lanes[l].kind, ctx);
        }
        CheckingHooks hooks(policies, lanes, hier.config().l2, values);
        drive(hier, hooks, trace, seed, 20'000);
        if (HasFatalFailure()) return;

        // The run exercised what the checks guard.
        EXPECT_GT(hooks.fills, 0u);
        EXPECT_GT(hooks.draws, 0u);
        EXPECT_LE(hooks.draws, hooks.fills);  // at most one per lifetime
        EXPECT_GT(hooks.undrawn_write_hits, 0u);
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          if (lanes[l].kind == PK::scrub_piggyback) {
            EXPECT_GT(hooks.scrub_accesses, 0u);
          }
          if (lanes[l].check_on_dirty_eviction) {
            EXPECT_GT(hooks.checked_evictions, 0u);
          }
        }
        // Unless frequent scrubs read whole sets, many lines die undrawn.
        bool rare_scrubs = true;
        for (const LanePolicy& l : lanes)
          rare_scrubs &= l.kind != PK::scrub_piggyback || l.scrub_every == 64;
        if (rare_scrubs) {
          EXPECT_LT(hooks.draws, hooks.fills);
        }
      }
    }
  }
}

}  // namespace
}  // namespace reap::core
