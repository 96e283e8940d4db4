// Two-level memory hierarchy matching the paper's Table I:
//   L1I / L1D: 32KB 4-way SRAM, 64B blocks, write-back
//   L2:        1MB 8-way STT-MRAM, 64B blocks, write-back, shared
//
// Write-allocate everywhere; non-inclusive (an L2 eviction does not
// back-invalidate L1, matching the simple gem5 classic-cache behaviour the
// paper's setup uses). The L2 read path invokes the L2 policy hooks so
// read-path policies can track disturbance accumulation.
//
// The access paths are templates over the L2 hooks type: the experiment
// engine instantiates them with a concrete policy (no virtual dispatch per
// access), while the untemplated overloads keep the runtime-observer
// behaviour by routing through VirtualHooks. L1 accesses always use
// NullHooks — policies observe the L2 only.
#pragma once

#include <cstdint>

#include "reap/sim/cache.hpp"

namespace reap::sim {

struct HierarchyConfig {
  CacheConfig l1i{.name = "L1I",
                  .capacity_bytes = 32 * 1024,
                  .ways = 4,
                  .block_bytes = 64};
  CacheConfig l1d{.name = "L1D",
                  .capacity_bytes = 32 * 1024,
                  .ways = 4,
                  .block_bytes = 64};
  CacheConfig l2{.name = "L2",
                 .capacity_bytes = 1024 * 1024,
                 .ways = 8,
                 .block_bytes = 64};

  // Stall cycles beyond the pipelined L1 hit.
  std::uint32_t l2_hit_cycles = 10;
  std::uint32_t mem_cycles = 150;
};

struct HierarchyStats {
  CacheStats l1i;
  CacheStats l1d;
  CacheStats l2;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
};

// Pre-decoded L2 coordinates of a demand address, produced by the batch
// pre-decode pass (simd::predecode over the L2 geometry). Must equal
// l2.set_of(addr) / l2.tagv_of(addr) for the op's address; only the
// demand path uses it -- writeback addresses (which differ) re-derive.
struct L2Hint {
  std::uint32_t set = 0;
  std::uint64_t tagv = 0;
};

class MemoryHierarchy {
 public:
  MemoryHierarchy(HierarchyConfig cfg, std::uint64_t seed = 1);

  // Returns every cache to its just-constructed state under the per-cache
  // seeds the constructor derives from `seed`, and clears the memory
  // counters and the fetch buffer. Like SetAssocCache::reset it drops the
  // L2 hooks and ones provider; the L2 hit-latency override is kept.
  // Geometry and storage are kept, so nothing is reallocated. `l2_lanes`
  // is the L2's reliability-lane count (SetAssocCache::reset).
  void reset(std::uint64_t seed, std::size_t l2_lanes = 1);

  // Runtime observer for the L2 read path; used by the untemplated access
  // overloads.
  void set_l2_hooks(L2PolicyHooks* hooks) { l2_.set_hooks(hooks); }

  // Ones-count provider for L2 lines (the data-value model).
  void set_l2_ones_provider(OnesProvider provider) {
    l2_.set_ones_provider(provider);
  }

  // Override the L2 hit latency (read-path policies differ here).
  void set_l2_hit_cycles(std::uint32_t cycles) { cfg_.l2_hit_cycles = cycles; }

  // Each returns stall cycles beyond the 1-cycle pipelined issue. The
  // templated forms drive the L2 with a concrete policy; the untemplated
  // forms use the hooks configured via set_l2_hooks.
  //
  // The un-hinted forms run the caches' scalar kernel flavor
  // (cache.hpp): they serve the legacy per-op loop and the plain batched
  // loop, which together are the pre-vectorization reference engine the
  // vectorized path is benchmarked against. The hinted forms (below) are
  // the production path and use the wide kernels. Both flavors are
  // value-identical.
  template <class L2Hooks>
  std::uint64_t inst_fetch(std::uint64_t pc, L2Hooks& l2_hooks) {
    // Fetch-buffer model: sequential fetches within the current block do
    // not re-access L1I (a real front end reads a whole fetch group at
    // once). Shift, not divide: this runs once per instruction, and the
    // block size is a power of two (the cache constructor enforces it).
    const std::uint64_t block = pc >> fetch_block_bits_;
    if (block == last_fetch_block_) return 0;
    last_fetch_block_ = block;
    return l1_access<false>(l1i_, pc, /*is_store=*/false, l2_hooks);
  }

  template <class L2Hooks>
  std::uint64_t load(std::uint64_t addr, L2Hooks& l2_hooks) {
    return l1_access<false>(l1d_, addr, /*is_store=*/false, l2_hooks);
  }

  template <class L2Hooks>
  std::uint64_t store(std::uint64_t addr, L2Hooks& l2_hooks) {
    return l1_access<false>(l1d_, addr, /*is_store=*/true, l2_hooks);
  }

  // Pre-decoded forms: identical behaviour, but an L1 miss looks the L2
  // up through the hint instead of re-deriving set/tag from the address.
  template <class L2Hooks>
  std::uint64_t inst_fetch(std::uint64_t pc, L2Hooks& l2_hooks, L2Hint hint) {
    const std::uint64_t block = pc >> fetch_block_bits_;
    if (block == last_fetch_block_) return 0;
    last_fetch_block_ = block;
    return l1_access(l1i_, pc, /*is_store=*/false, l2_hooks, hint);
  }

  template <class L2Hooks>
  std::uint64_t load(std::uint64_t addr, L2Hooks& l2_hooks, L2Hint hint) {
    return l1_access(l1d_, addr, /*is_store=*/false, l2_hooks, hint);
  }

  template <class L2Hooks>
  std::uint64_t store(std::uint64_t addr, L2Hooks& l2_hooks, L2Hint hint) {
    return l1_access(l1d_, addr, /*is_store=*/true, l2_hooks, hint);
  }

  // Prefetch the L2-side state an upcoming op may touch (from the batch
  // pre-decode): the set's metadata columns and the ones-memo slot the
  // op's block maps to (the fill path probes it on every L2 miss and
  // write hit). Pure latency hints, no semantic effect.
  void prefetch_l2(std::size_t set, std::uint64_t addr) const {
    l2_.prefetch_set(set);
    l2_.prefetch_ones(addr);
  }

  std::uint64_t inst_fetch(std::uint64_t pc) {
    VirtualHooks h{l2_.hooks()};
    return inst_fetch(pc, h);
  }
  std::uint64_t load(std::uint64_t addr) {
    VirtualHooks h{l2_.hooks()};
    return load(addr, h);
  }
  std::uint64_t store(std::uint64_t addr) {
    VirtualHooks h{l2_.hooks()};
    return store(addr, h);
  }

  HierarchyStats stats() const;
  void reset_stats();

  SetAssocCache& l2() { return l2_; }
  const SetAssocCache& l2() const { return l2_; }
  SetAssocCache& l1d() { return l1d_; }
  SetAssocCache& l1i() { return l1i_; }
  const HierarchyConfig& config() const { return cfg_; }

 private:
  // L1 access; on miss goes to L2. Returns stall cycles. kVector picks
  // the cache kernel flavor for every lookup on the path.
  template <bool kVector, class L2Hooks>
  std::uint64_t l1_access(SetAssocCache& l1, std::uint64_t addr, bool is_store,
                          L2Hooks& l2_hooks) {
    NullHooks l1_hooks;
    if (is_store ? l1.write<kVector>(addr, l1_hooks)
                 : l1.read<kVector>(addr, l1_hooks))
      return 0;

    // L1 miss: fetch the block from L2 (write-allocate on stores too).
    const std::uint64_t stall = l2_read<kVector>(addr, l2_hooks);
    const SetAssocCache::Evicted ev =
        l1.fill<kVector>(addr, /*dirty=*/is_store, l1_hooks);
    if (ev.any && ev.dirty) l2_write<kVector>(ev.addr, l2_hooks);
    if (is_store) {
      // The allocating store dirties the freshly-filled line.
      l1.write<kVector>(addr, l1_hooks);
    }
    return stall;
  }

  // Hinted variant: the demand-path L2 lookup goes through the
  // pre-decoded coordinates; everything else (fills, writebacks, the L1
  // walk) is the exact same code, on the vector kernel flavor.
  template <class L2Hooks>
  std::uint64_t l1_access(SetAssocCache& l1, std::uint64_t addr, bool is_store,
                          L2Hooks& l2_hooks, L2Hint hint) {
    NullHooks l1_hooks;
    if (is_store ? l1.write(addr, l1_hooks) : l1.read(addr, l1_hooks))
      return 0;

    const std::uint64_t stall = l2_read(addr, l2_hooks, hint);
    const SetAssocCache::Evicted ev =
        l1.fill(addr, /*dirty=*/is_store, l1_hooks);
    if (ev.any && ev.dirty) l2_write<true>(ev.addr, l2_hooks);
    if (is_store) {
      l1.write(addr, l1_hooks);
    }
    return stall;
  }

  // L2 read request (from an L1 fill). Returns stall cycles.
  template <bool kVector, class L2Hooks>
  std::uint64_t l2_read(std::uint64_t addr, L2Hooks& l2_hooks) {
    if (l2_.read<kVector>(addr, l2_hooks)) return cfg_.l2_hit_cycles;

    ++mem_reads_;
    const SetAssocCache::Evicted ev =
        l2_.fill<kVector>(addr, /*dirty=*/false, l2_hooks);
    if (ev.any && ev.dirty) ++mem_writes_;
    return cfg_.mem_cycles;
  }

  template <class L2Hooks>
  std::uint64_t l2_read(std::uint64_t addr, L2Hooks& l2_hooks, L2Hint hint) {
    if (l2_.read_pre(hint.set, hint.tagv, l2_hooks)) return cfg_.l2_hit_cycles;

    ++mem_reads_;
    const SetAssocCache::Evicted ev = l2_.fill(addr, /*dirty=*/false, l2_hooks);
    if (ev.any && ev.dirty) ++mem_writes_;
    return cfg_.mem_cycles;
  }

  // L2 write request (L1 dirty writeback). Off the critical path.
  template <bool kVector, class L2Hooks>
  void l2_write(std::uint64_t addr, L2Hooks& l2_hooks) {
    if (l2_.write<kVector>(addr, l2_hooks)) return;

    // Write-allocate: fetch, install dirty. (The fetch is a memory read,
    // not an L2 data-array read, so it does not disturb resident lines.)
    ++mem_reads_;
    const SetAssocCache::Evicted ev =
        l2_.fill<kVector>(addr, /*dirty=*/true, l2_hooks);
    if (ev.any && ev.dirty) ++mem_writes_;
  }

  HierarchyConfig cfg_;
  SetAssocCache l1i_;
  SetAssocCache l1d_;
  SetAssocCache l2_;
  unsigned fetch_block_bits_ = 6;
  std::uint64_t mem_reads_ = 0;
  std::uint64_t mem_writes_ = 0;
  std::uint64_t last_fetch_block_ = ~std::uint64_t{0};
};

}  // namespace reap::sim
