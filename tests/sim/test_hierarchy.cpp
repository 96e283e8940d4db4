#include "reap/sim/hierarchy.hpp"

#include <gtest/gtest.h>

namespace reap::sim {
namespace {

HierarchyConfig tiny_cfg() {
  HierarchyConfig cfg;
  // Shrink for directed tests: L1 = 2 sets x 2 ways, L2 = 4 sets x 2 ways.
  cfg.l1i = {.name = "L1I", .capacity_bytes = 256, .ways = 2, .block_bytes = 64};
  cfg.l1d = {.name = "L1D", .capacity_bytes = 256, .ways = 2, .block_bytes = 64};
  cfg.l2 = {.name = "L2", .capacity_bytes = 512, .ways = 2, .block_bytes = 64};
  cfg.l2_hit_cycles = 10;
  cfg.mem_cycles = 100;
  return cfg;
}

// One op at a time, with no L2 observer.
L2Hint hint(const MemoryHierarchy& h, std::uint64_t addr) {
  return {static_cast<std::uint32_t>(h.l2().set_of(addr)),
          h.l2().tagv_of(addr)};
}
std::uint64_t load(MemoryHierarchy& h, std::uint64_t addr) {
  NullHooks hooks;
  return h.load(addr, hooks, hint(h, addr));
}
std::uint64_t store(MemoryHierarchy& h, std::uint64_t addr) {
  NullHooks hooks;
  return h.store(addr, hooks, hint(h, addr));
}
std::uint64_t inst_fetch(MemoryHierarchy& h, std::uint64_t pc) {
  NullHooks hooks;
  return h.inst_fetch(pc, hooks, hint(h, pc));
}

TEST(Hierarchy, TableOneDefaults) {
  const HierarchyConfig cfg;
  EXPECT_EQ(cfg.l1i.capacity_bytes, 32u * 1024u);
  EXPECT_EQ(cfg.l1i.ways, 4u);
  EXPECT_EQ(cfg.l1d.capacity_bytes, 32u * 1024u);
  EXPECT_EQ(cfg.l1d.ways, 4u);
  EXPECT_EQ(cfg.l2.capacity_bytes, 1024u * 1024u);
  EXPECT_EQ(cfg.l2.ways, 8u);
  EXPECT_EQ(cfg.l2.block_bytes, 64u);
}

TEST(Hierarchy, ColdLoadMissesToMemory) {
  MemoryHierarchy h(tiny_cfg());
  const auto stall = load(h, 0x10000);
  EXPECT_EQ(stall, 100u);  // mem_cycles
  const auto s = h.stats();
  EXPECT_EQ(s.l1d.read_lookups, 1u);
  EXPECT_EQ(s.l1d.read_hits, 0u);
  EXPECT_EQ(s.l2.read_lookups, 1u);
  EXPECT_EQ(s.mem_reads, 1u);
}

TEST(Hierarchy, SecondLoadHitsL1) {
  MemoryHierarchy h(tiny_cfg());
  load(h, 0x10000);
  EXPECT_EQ(load(h, 0x10000), 0u);
  EXPECT_EQ(load(h, 0x10020), 0u);  // same block
  const auto s = h.stats();
  EXPECT_EQ(s.l1d.read_hits, 2u);
  EXPECT_EQ(s.l2.read_lookups, 1u);  // only the first miss
}

TEST(Hierarchy, L1EvictionHitsL2) {
  MemoryHierarchy h(tiny_cfg());
  // L1D: 2 sets. Addresses with the same L1 set: stride 128.
  load(h, 0x0000);
  load(h, 0x0080);
  load(h, 0x0100);  // evicts 0x0000 from L1 (clean): no L2 write
  EXPECT_EQ(h.stats().l2.write_lookups, 0u);
  // Re-load 0x0000: L1 miss, L2 must still hold it if L2 retained it.
  const auto stall = load(h, 0x0000);
  EXPECT_EQ(stall, 10u);  // L2 hit
}

TEST(Hierarchy, DirtyL1EvictionWritesBackToL2) {
  MemoryHierarchy h(tiny_cfg());
  store(h, 0x0000);  // dirty in L1
  load(h, 0x0080);
  load(h, 0x0100);  // evicts dirty 0x0000 -> L2 write
  const auto s = h.stats();
  EXPECT_GE(s.l2.write_lookups, 1u);
}

TEST(Hierarchy, StoreAllocatesAndDirties) {
  MemoryHierarchy h(tiny_cfg());
  const auto stall = store(h, 0x4000);
  EXPECT_EQ(stall, 100u);  // cold miss
  EXPECT_EQ(store(h, 0x4000), 0u);
  EXPECT_EQ(h.stats().l1d.write_hits, 2u);  // allocate-then-write + hit
}

TEST(Hierarchy, InstFetchSequentialBlocksCoalesce) {
  MemoryHierarchy h(tiny_cfg());
  inst_fetch(h, 0x400000);
  const auto before = h.stats().l1i.read_lookups;
  // 15 more fetches within the same 64B block: no further L1I lookups.
  for (int i = 1; i < 16; ++i) inst_fetch(h, 0x400000 + i * 4);
  EXPECT_EQ(h.stats().l1i.read_lookups, before);
  inst_fetch(h, 0x400040);  // next block
  EXPECT_EQ(h.stats().l1i.read_lookups, before + 1);
}

TEST(Hierarchy, L2MissFillsAndEvicts) {
  MemoryHierarchy h(tiny_cfg());
  // L2: 4 sets, 2 ways. Same L2 set: stride 256. Fill 3 blocks in set 0.
  load(h, 0x0000);
  load(h, 0x0100);
  load(h, 0x0200);  // L2 set 0 overflows: eviction
  const auto s = h.stats();
  EXPECT_EQ(s.l2.fills, 3u);
  EXPECT_EQ(s.l2.evictions, 1u);
}

TEST(Hierarchy, WriteAllocateOnL2WriteMiss) {
  MemoryHierarchy h(tiny_cfg());
  // Dirty a line in L1, then force its eviction after L2 also evicted it.
  store(h, 0x0000);
  // Thrash L2 set 0 (stride = 256 for 4-set L2) so 0x0000 leaves L2.
  load(h, 0x0100);
  load(h, 0x0200);
  load(h, 0x0300);
  // Now push 0x0000 out of L1 (L1 stride 128, set 0).
  load(h, 0x0080);
  load(h, 0x0100);
  // The dirty writeback of 0x0000 missed L2 -> write-allocate: mem read.
  const auto s = h.stats();
  EXPECT_GT(s.mem_reads, 4u);
  EXPECT_EQ(s.l2.write_lookups, 1u);
  EXPECT_EQ(s.l2.write_hits, 0u);
}

TEST(Hierarchy, L2DirtyEvictionReachesMemory) {
  MemoryHierarchy h(tiny_cfg());
  store(h, 0x0000);
  // Evict 0x0000 from L1 so L2 holds it dirty.
  store(h, 0x0080);
  store(h, 0x0100);
  // 0x0000 written back to L2 (dirty). Now thrash L2 set 0.
  load(h, 0x0200);
  load(h, 0x0300);
  load(h, 0x0400);
  EXPECT_GE(h.stats().mem_writes, 1u);
}

TEST(Hierarchy, ResetStatsZeroesEverything) {
  MemoryHierarchy h(tiny_cfg());
  load(h, 0x10000);
  store(h, 0x20000);
  inst_fetch(h, 0x400000);
  h.reset_stats();
  const auto s = h.stats();
  EXPECT_EQ(s.l1d.read_lookups, 0u);
  EXPECT_EQ(s.l2.read_lookups, 0u);
  EXPECT_EQ(s.mem_reads, 0u);
  EXPECT_EQ(s.mem_writes, 0u);
}

TEST(Hierarchy, OnesModelAppliedToL2Lines) {
  MemoryHierarchy h(tiny_cfg());
  h.set_l2_ones_provider(OnesProvider::fixed(123));
  load(h, 0x0000);
  bool found = false;
  for (std::size_t w = 0; w < h.l2().config().ways; ++w) {
    const auto line = h.l2().line_info(0, w);
    if (line.valid) {
      EXPECT_EQ(line.ones, 123u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Hierarchy, L2HitLatencyOverride) {
  MemoryHierarchy h(tiny_cfg());
  h.set_l2_hit_cycles(33);
  load(h, 0x0000);
  load(h, 0x0080);
  load(h, 0x0100);       // evict 0x0000 from L1 (clean)
  EXPECT_EQ(load(h, 0x0000), 33u);  // L2 hit at the overridden latency
}

}  // namespace
}  // namespace reap::sim
