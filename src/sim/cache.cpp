#include "reap/sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "reap/common/assert.hpp"

namespace reap::sim {

SetAssocCache::SetAssocCache(CacheConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)) {
  REAP_EXPECTS(cfg_.ways >= 1);
  REAP_EXPECTS(std::has_single_bit(cfg_.block_bytes));
  REAP_EXPECTS(cfg_.capacity_bytes % (cfg_.ways * cfg_.block_bytes) == 0);
  sets_ = cfg_.sets();
  REAP_EXPECTS(std::has_single_bit(sets_));
  stride_ = simd::padded_ways(cfg_.ways);
  offset_bits_ = static_cast<unsigned>(std::countr_zero(cfg_.block_bytes));
  index_bits_ = static_cast<unsigned>(std::countr_zero(sets_));
  // Hot columns: 64 B-aligned, stride padded to the vector width -- see
  // the layout note up top. reset() fills them.
  tags_ = simd::AlignedVec<std::uint64_t>(sets_ * stride_);
  // Lane columns start on a host-line boundary, like the first one.
  constexpr std::size_t kRelPerLine = simd::kLineBytes / sizeof(LineRel);
  lane_stride_ = (sets_ * stride_ + kRelPerLine - 1) & ~(kRelPerLine - 1);
  rel_ = simd::AlignedVec<LineRel>(lane_stride_);
  lru_ = simd::AlignedVec<std::uint64_t>(sets_ * stride_);
  state_.resize(sets_ * stride_);
  default_ones_ = static_cast<std::uint32_t>(cfg_.block_bytes * 8 / 2);
  reset(seed);
}

void SetAssocCache::reset(std::uint64_t seed, std::size_t lanes) {
  REAP_EXPECTS(lanes >= 1);
  REAP_EXPECTS(lanes == 1 ||
               cfg_.replacement != ReplacementKind::least_error_rate);
  lanes_ = lanes;
  if (rel_.size() < lanes_ * lane_stride_)
    rel_ = simd::AlignedVec<LineRel>(lanes_ * lane_stride_);
  const std::size_t n = sets_ * stride_;
  // Zero = invalid tagv / LineRel{0,0}.
  std::fill_n(tags_.data(), n, std::uint64_t{0});
  std::fill_n(rel_.data(), lanes_ * lane_stride_, LineRel{});
  // Invalid ways stamp 0; the lru column's padding lanes hold the
  // never-wins sentinel so the vector victim scan can run whole padded
  // sets. Set in every build -- the layout is REAP_SIMD-independent by
  // design.
  for (std::size_t s = 0; s < sets_; ++s) {
    std::uint64_t* lru = lru_.data() + s * stride_;
    std::fill_n(lru, cfg_.ways, std::uint64_t{0});
    std::fill_n(lru + cfg_.ways, stride_ - cfg_.ways, simd::kLruPad);
  }
  std::fill(state_.begin(), state_.end(), LineState{});
  stats_ = {};
  hooks_ = nullptr;
  ones_ = {};
  clock_ = 0;
  rng_.reseed(seed);
}

SetAssocCache::LineInfo SetAssocCache::line_info(std::size_t set,
                                                 std::size_t way) const {
  REAP_EXPECTS(set < sets_);
  REAP_EXPECTS(way < cfg_.ways);
  const std::size_t idx = set * stride_ + way;
  LineInfo info;
  info.valid = state_[idx].valid;
  info.dirty = state_[idx].dirty;
  info.tag = tags_[idx] >> 1;
  info.ones = rel_[idx].ones;
  info.reads_since_check = rel_[idx].reads_since_check;
  info.lru_stamp = lru_[idx];
  info.fill_stamp = state_[idx].fill_stamp;
  return info;
}

// random / least_error_rate victim pick -- the cold tail of victim_way
// (the lru/fifo scans live in the header with the hot paths).
std::size_t SetAssocCache::victim_way_rare(std::size_t set) {
  const std::size_t base = set * stride_;
  const LineState* st = &state_[base];
  // Invalid ways first.
  for (std::size_t w = 0; w < cfg_.ways; ++w) {
    if (!st[w].valid) return w;
  }
  if (cfg_.replacement == ReplacementKind::random_repl)
    return static_cast<std::size_t>(rng_.below(cfg_.ways));
  // least_error_rate: most accumulated unchecked reads, LRU tie-break
  // (such a cache has one lane; reset() enforces it).
  const LineRel* rel = &rel_[base];
  const std::uint64_t* lru = &lru_[base];
  std::size_t v = 0;
  for (std::size_t w = 1; w < cfg_.ways; ++w) {
    if (rel[w].reads_since_check > rel[v].reads_since_check ||
        (rel[w].reads_since_check == rel[v].reads_since_check &&
         lru[w] < lru[v])) {
      v = w;
    }
  }
  return v;
}

bool SetAssocCache::invalidate(std::uint64_t addr) {
  const std::size_t set = set_of(addr);
  const int way = find_way(set, tagv_of(addr));
  if (way < 0) return false;
  const std::size_t idx = set * stride_ + static_cast<std::size_t>(way);
  const bool was_dirty = state_[idx].dirty;
  tags_[idx] = 0;
  for (std::size_t l = 0; l < lanes_; ++l) rel_[l * lane_stride_ + idx] = {};
  lru_[idx] = 0;  // stamp 0 = prime victim, like any invalid line
  state_[idx] = LineState{};
  return was_dirty;
}

}  // namespace reap::sim
