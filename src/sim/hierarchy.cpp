#include "reap/sim/hierarchy.hpp"

#include <bit>

namespace reap::sim {

namespace {

// Per-cache seeds, derived from the hierarchy seed alike by the
// constructor and by reset().
std::uint64_t l1i_seed(std::uint64_t seed) { return seed * 3 + 1; }
std::uint64_t l1d_seed(std::uint64_t seed) { return seed * 5 + 2; }
std::uint64_t l2_seed(std::uint64_t seed) { return seed * 7 + 3; }

}  // namespace

MemoryHierarchy::MemoryHierarchy(HierarchyConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      l1i_(cfg.l1i, l1i_seed(seed)),
      l1d_(cfg.l1d, l1d_seed(seed)),
      l2_(cfg.l2, l2_seed(seed)),
      fetch_block_bits_(
          static_cast<unsigned>(std::countr_zero(cfg.l1i.block_bytes))) {}

void MemoryHierarchy::reset(std::uint64_t seed) {
  l1i_.reset(l1i_seed(seed));
  l1d_.reset(l1d_seed(seed));
  l2_.reset(l2_seed(seed));
  mem_reads_ = 0;
  mem_writes_ = 0;
  last_fetch_block_ = ~std::uint64_t{0};
}

HierarchyStats MemoryHierarchy::stats() const {
  HierarchyStats s;
  s.l1i = l1i_.stats();
  s.l1d = l1d_.stats();
  s.l2 = l2_.stats();
  s.mem_reads = mem_reads_;
  s.mem_writes = mem_writes_;
  return s;
}

void MemoryHierarchy::reset_stats() {
  l1i_.reset_stats();
  l1d_.reset_stats();
  l2_.reset_stats();
  mem_reads_ = 0;
  mem_writes_ = 0;
}

}  // namespace reap::sim
