#include "reap/sim/cache.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "reap/common/rng.hpp"

namespace reap::sim {
namespace {

CacheConfig small_cfg() {
  // 4 sets x 2 ways x 64B = 512B.
  return {.name = "t",
          .capacity_bytes = 512,
          .ways = 2,
          .block_bytes = 64,
          .replacement = ReplacementKind::lru};
}

// Builds an address with the given tag and set for a 64B-block, 4-set cache.
std::uint64_t mk_addr(std::uint64_t tag, std::uint64_t set) {
  return (tag << (6 + 2)) | (set << 6);
}

// Accesses with no observer.
bool read(SetAssocCache& c, std::uint64_t addr) {
  NullHooks h;
  return c.read(addr, h);
}
bool write(SetAssocCache& c, std::uint64_t addr) {
  NullHooks h;
  return c.write(addr, h);
}
SetAssocCache::Evicted fill(SetAssocCache& c, std::uint64_t addr,
                            bool dirty) {
  NullHooks h;
  return c.fill(addr, dirty, h);
}

TEST(Cache, GeometryChecks) {
  SetAssocCache c(small_cfg());
  EXPECT_EQ(c.config().sets(), 4u);
  EXPECT_EQ(c.set_of(mk_addr(5, 3)), 3u);
  EXPECT_EQ(c.tag_of(mk_addr(5, 3)), 5u);
  EXPECT_EQ(c.line_addr(5, 3), mk_addr(5, 3));
}

TEST(Cache, ColdMissesThenHits) {
  SetAssocCache c(small_cfg());
  const auto a = mk_addr(1, 0);
  EXPECT_FALSE(read(c, a));
  fill(c, a, false);
  EXPECT_TRUE(read(c, a));
  EXPECT_EQ(c.stats().read_lookups, 2u);
  EXPECT_EQ(c.stats().read_hits, 1u);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, OffsetBitsIgnored) {
  SetAssocCache c(small_cfg());
  fill(c, mk_addr(1, 0), false);
  EXPECT_TRUE(read(c, mk_addr(1, 0) + 63));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  SetAssocCache c(small_cfg());
  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  fill(c, a, false);
  fill(c, b, false);
  EXPECT_TRUE(read(c, a));  // a is now MRU
  const auto ev = fill(c, d, false);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, b);  // b was LRU
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
}

TEST(Cache, FifoEvictsOldestFill) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::fifo;
  SetAssocCache c(cfg);
  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  fill(c, a, false);
  fill(c, b, false);
  EXPECT_TRUE(read(c, a));  // touching does not save a under FIFO
  const auto ev = fill(c, d, false);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, a);
}

TEST(Cache, RandomReplacementEvictsSomething) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::random_repl;
  SetAssocCache c(cfg, 99);
  fill(c, mk_addr(1, 0), false);
  fill(c, mk_addr(2, 0), false);
  const auto ev = fill(c, mk_addr(3, 0), false);
  EXPECT_TRUE(ev.any);
  EXPECT_TRUE(ev.addr == mk_addr(1, 0) || ev.addr == mk_addr(2, 0));
}

TEST(Cache, LerEvictsMostAccumulatedLine) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::least_error_rate;
  SetAssocCache c(cfg);
  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  fill(c, a, false);
  fill(c, b, false);
  // Simulate accumulation via a hooks-free read pattern: directly bump the
  // counter through repeated reads is not possible without hooks, so use
  // the public surface: reads touch LRU only. Force distinct accumulation
  // through a policy-style mutation is internal; instead verify the LRU
  // tie-break first (equal counters -> LRU victim).
  EXPECT_TRUE(read(c, a));  // a becomes MRU; counters equal (0)
  const auto ev = fill(c, d, false);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, b);  // tie on accumulation -> LRU (b) leaves
}

TEST(Cache, LerPrefersAccumulationOverRecency) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::least_error_rate;
  SetAssocCache c(cfg);

  // A hook that marks way 0 as heavily accumulated.
  struct Bumper : NullHooks {
    void on_read_lookup(CacheSetView set, int hit_way) {
      if (hit_way >= 0) set.rel(0).reads_since_check = 100;
    }
  } bumper;

  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  fill(c, a, false);  // way 0
  fill(c, b, false);  // way 1
  EXPECT_TRUE(c.read(a, bumper));  // bumps way 0's accumulation, a is MRU

  // LRU would evict b; LER must evict the accumulated a despite recency.
  const auto ev = fill(c, d, false);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, a);
}

TEST(Cache, InvalidWaysFillFirst) {
  SetAssocCache c(small_cfg());
  fill(c, mk_addr(1, 0), false);
  const auto ev = fill(c, mk_addr(2, 0), false);
  EXPECT_FALSE(ev.any);  // second way was free
}

TEST(Cache, DirtyEvictionReported) {
  SetAssocCache c(small_cfg());
  fill(c, mk_addr(1, 0), true);
  fill(c, mk_addr(2, 0), false);
  const auto ev = fill(c, mk_addr(3, 0), false);
  ASSERT_TRUE(ev.any);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.addr, mk_addr(1, 0));
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, WriteHitDirtiesClearsAccumulationAndKeepsOnes) {
  SetAssocCache c(small_cfg());
  c.set_ones_provider(OnesProvider::fixed(100));
  fill(c, mk_addr(1, 0), false);
  EXPECT_EQ(c.line_info(0, 0).ones, 100u);
  EXPECT_FALSE(c.line_info(0, 0).dirty);

  // Providers are address-deterministic (the OnesProvider contract), so a
  // write hit keeps the count drawn before it (here by line_info) rather
  // than re-deriving the same value -- even across a mid-run provider
  // swap, which real experiments never do.
  c.set_ones_provider(OnesProvider::fixed(200));
  EXPECT_TRUE(write(c, mk_addr(1, 0)));
  EXPECT_TRUE(c.line_info(0, 0).dirty);
  EXPECT_EQ(c.line_info(0, 0).ones, 100u);
  EXPECT_EQ(c.line_info(0, 0).reads_since_check, 0u);

  // The next fill of the line derives from the current provider.
  c.invalidate(mk_addr(1, 0));
  fill(c, mk_addr(1, 0), false);
  EXPECT_EQ(c.line_info(0, 0).ones, 200u);
}

TEST(Cache, WriteMissDoesNotAllocate) {
  SetAssocCache c(small_cfg());
  EXPECT_FALSE(write(c, mk_addr(1, 0)));
  EXPECT_FALSE(c.probe(mk_addr(1, 0)));
  EXPECT_EQ(c.stats().write_lookups, 1u);
  EXPECT_EQ(c.stats().write_hits, 0u);
}

TEST(Cache, InvalidateClearsLine) {
  SetAssocCache c(small_cfg());
  fill(c, mk_addr(1, 0), true);
  EXPECT_TRUE(c.invalidate(mk_addr(1, 0)));  // was dirty
  EXPECT_FALSE(c.probe(mk_addr(1, 0)));
  EXPECT_FALSE(c.invalidate(mk_addr(1, 0)));
}

TEST(Cache, DefaultOnesIsHalfBlockBits) {
  SetAssocCache c(small_cfg());
  fill(c, mk_addr(1, 2), false);
  EXPECT_EQ(c.line_info(2, 0).ones, 256u);
}

// Hook recording for interface verification.
struct RecordingHooks {
  void on_read_lookup(CacheSetView set, int hit_way) {
    ++reads;
    last_ways = set.size();
    last_hit = hit_way;
  }
  void on_write_lookup(CacheSetView, int hit_way) {
    ++writes;
    last_hit = hit_way;
  }
  void on_fill(CacheSetView, std::size_t) { ++fills; }
  void on_evict(CacheSetView set, std::size_t way, bool dirty) {
    ++evicts;
    last_evicted_ones = set.ones(way);
    last_evicted_dirty = dirty;
  }

  int reads = 0, writes = 0, fills = 0, evicts = 0;
  std::size_t last_ways = 0;
  int last_hit = -2;
  std::uint32_t last_evicted_ones = 0;
  bool last_evicted_dirty = false;
};

TEST(CacheHooks, ReadLookupSeesAllWaysAndHitIndex) {
  SetAssocCache c(small_cfg());
  RecordingHooks h;
  c.read(mk_addr(1, 0), h);
  EXPECT_EQ(h.reads, 1);
  EXPECT_EQ(h.last_ways, 2u);
  EXPECT_EQ(h.last_hit, -1);
  c.fill(mk_addr(1, 0), false, h);
  EXPECT_EQ(h.fills, 1);
  c.read(mk_addr(1, 0), h);
  EXPECT_EQ(h.last_hit, 0);
}

TEST(CacheHooks, EvictFiresBeforeInvalidation) {
  SetAssocCache c(small_cfg());
  RecordingHooks h;
  c.set_ones_provider(OnesProvider::fixed(77));
  c.fill(mk_addr(1, 0), false, h);
  c.fill(mk_addr(2, 0), false, h);
  c.fill(mk_addr(3, 0), false, h);  // evicts one
  EXPECT_EQ(h.evicts, 1);
  EXPECT_EQ(h.last_evicted_ones, 77u);  // still populated at evict time
  EXPECT_FALSE(h.last_evicted_dirty);
  EXPECT_EQ(h.fills, 3);
}

TEST(CacheHooks, WriteLookupFiresOnMissToo) {
  SetAssocCache c(small_cfg());
  RecordingHooks h;
  c.write(mk_addr(9, 1), h);
  EXPECT_EQ(h.writes, 1);
  EXPECT_EQ(h.last_hit, -1);
}

TEST(Cache, StatsResetKeepsContents) {
  SetAssocCache c(small_cfg());
  fill(c, mk_addr(1, 0), false);
  read(c, mk_addr(1, 0));
  c.reset_stats();
  EXPECT_EQ(c.stats().read_lookups, 0u);
  EXPECT_TRUE(c.probe(mk_addr(1, 0)));  // contents survive
}

// Every way of every set, invalid ways included, in reliability lanes
// [0, lanes).
void expect_same_state(SetAssocCache& a, SetAssocCache& b,
                       std::size_t lanes = 1) {
  const auto stats = [](const CacheStats& s) {
    return std::tuple(s.read_lookups, s.read_hits, s.write_lookups,
                      s.write_hits, s.fills, s.evictions, s.dirty_evictions);
  };
  EXPECT_EQ(stats(a.stats()), stats(b.stats()));
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t s = 0; s < a.config().sets(); ++s) {
      for (std::size_t w = 0; w < a.config().ways; ++w) {
        const auto x = a.line_info(s, w, l);
        const auto y = b.line_info(s, w, l);
        EXPECT_EQ(std::tuple(x.valid, x.dirty, x.tag, x.ones,
                             x.reads_since_check, x.lru_stamp, x.fill_stamp),
                  std::tuple(y.valid, y.dirty, y.tag, y.ones,
                             y.reads_since_check, y.lru_stamp, y.fill_stamp))
            << "lane " << l << " set " << s << " way " << w;
      }
    }
  }
}

// Static hooks that keep every reliability lane's column moving, so LER
// victims depend on it and a reset that skipped a lane would show: each
// read lookup accumulates over its set in every lane, and lanes 0, 3, 6,
// 9 check the hit way.
struct LaneHooks {
  std::size_t lanes = 1;
  void on_read_lookup(CacheSetView set, int hit_way) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const CacheSetView lane = set.lane(l);
      lane.accumulate_valid();
      if (hit_way >= 0 && l % 3 == 0)
        lane.rel(static_cast<std::size_t>(hit_way)).reads_since_check = 0;
    }
  }
  void on_write_lookup(CacheSetView, int) {}
  void on_fill(CacheSetView, std::size_t) {}
  void on_evict(CacheSetView, std::size_t, bool) {}
};

// Random reads and writes (filling on a miss) over 16 tags x the
// `n_sets` sets from `first_set` on; returns the hit and victim sequence.
std::vector<std::uint64_t> drive_sets(SetAssocCache& c, std::size_t lanes,
                                      std::size_t first_set,
                                      std::size_t n_sets, std::uint64_t seed,
                                      int ops) {
  common::Rng rng(seed);
  LaneHooks hooks{lanes};
  const unsigned tag_shift = c.offset_bits() + c.index_bits();
  std::vector<std::uint64_t> log;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t set = first_set + rng.below(n_sets);
    const std::uint64_t addr =
        (rng.below(16) << tag_shift) | (set << c.offset_bits());
    const bool store = rng.chance(0.3);
    const bool hit = store ? c.write(addr, hooks) : c.read(addr, hooks);
    log.push_back(hit);
    if (!hit) {
      const auto ev = c.fill(addr, store, hooks);
      log.push_back(ev.any ? ev.addr | ev.dirty : ~std::uint64_t{0});
    }
  }
  return log;
}

// reset() re-zeroes only the sets filled since the last reset (or every
// column, when most sets were filled or the lane columns grew). Either
// way the cache must be indistinguishable from a fresh one: after passes
// that fill a few sets and passes that fill all of them, across lane
// counts that grow, shrink and grow again. Each pass runs on the reset
// cache and on a fresh one side by side, so it also checks that the same
// traffic takes the same path through both.
TEST(CacheReset, IndistinguishableFromAFreshCache) {
  for (const ReplacementKind kind :
       {ReplacementKind::lru, ReplacementKind::fifo,
        ReplacementKind::random_repl, ReplacementKind::least_error_rate}) {
    SCOPED_TRACE(static_cast<int>(kind));
    // 3 ways: the per-set stride is padded to 4, so reset must restore
    // the padding lanes too.
    const CacheConfig cfg{.name = "t",
                          .capacity_bytes = 64 * 3 * 64,
                          .ways = 3,
                          .block_bytes = 64,
                          .replacement = kind};
    const std::size_t few = 3, most = cfg.sets();
    // (lanes, sets filled) per pass: lane counts 1 -> 10 -> 2 -> 10, each
    // with passes over few and over most sets. Successive few-set passes
    // fill different sets, so a lane a reset missed is still dirty when a
    // later pass widens the lanes again. Least-error-rate replacement
    // reads the rel column, so it gets one lane throughout.
    std::vector<std::pair<std::size_t, std::size_t>> passes = {
        {1, few},  {1, most}, {1, few},  {10, few}, {10, most},
        {10, few}, {2, few},  {10, few}, {2, most}, {2, few},
        {10, few}, {10, most}, {10, few}};
    if (kind == ReplacementKind::least_error_rate)
      for (auto& pass : passes) pass.first = 1;

    SetAssocCache used(cfg, 7);
    used.set_ones_provider(OnesProvider::fixed(100));
    SetAssocCache fresh(cfg, 7);
    fresh.set_ones_provider(OnesProvider::fixed(100));
    std::uint64_t seed = 7;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const auto [lanes, sets] = passes[i];
      const std::size_t next_lanes =
          i + 1 < passes.size() ? passes[i + 1].first : lanes;
      SCOPED_TRACE(testing::Message() << "pass " << i << ": " << lanes
                                      << " lanes over " << sets
                                      << " sets, then " << next_lanes);
      const std::size_t first = sets == most ? 0 : (5 * i) % (most - few);
      EXPECT_EQ(drive_sets(used, lanes, first, sets, seed, 1500),
                drive_sets(fresh, lanes, first, sets, seed, 1500));
      expect_same_state(used, fresh, lanes);

      // Fills after the reset use the default ones count, not the
      // dropped provider.
      ++seed;
      used.reset(seed, next_lanes);
      fresh = SetAssocCache(cfg, seed);
      fresh.reset(seed, next_lanes);
      expect_same_state(used, fresh, next_lanes);
    }
  }
}

TEST(Cache, RejectsNonPowerOfTwoGeometry) {
  CacheConfig cfg = small_cfg();
  cfg.block_bytes = 48;
  EXPECT_DEATH(SetAssocCache c(cfg), "");
}

}  // namespace
}  // namespace reap::sim
