// Set-associative cache with a statically dispatched read-path observer.
//
// The cache implements the *mechanism* shared by every read-path variant:
// tag match, replacement, dirty tracking, per-line reliability metadata.
// The *policy* differences the paper studies (who gets ECC-checked when,
// which reads count as concealed) live in core read-path implementations
// (core/policy_impl.hpp), which the cache invokes on every access.
//
// Storage is structure-of-arrays, split by access temperature:
//   tags_  -- dense (tag << 1 | valid) uint64 column; the only data
//             find_way scans (one 64B host cache line covers an 8-way set)
//   rel_   -- LineRel {ones, reads_since_check}, the reliability metadata
//             the policy loop walks on every lookup (8 bytes per line);
//             one column per reliability lane (see below)
//   lru_   -- lru-stamp uint64 column: written on every hit (the LRU
//             touch) and min-scanned on every fill (the victim pick)
//   state_ -- LineState {valid, dirty, fill stamp}, touched only on
//             fills/evictions
//
// The hot columns (tags_, rel_, lru_) are 64 B-aligned and the per-set
// stride is padded to the vector width (sim/simd.hpp): an 8-way set's tag
// column is exactly one host cache line and every whole-set scan --
// find_way's tag compare, the policies' accumulation walk, the LRU victim
// scan -- runs in full vectors over padding that can never win (zero for
// tags/rel, simd::kLruPad for lru). The layout is identical in scalar
// builds; only the kernels switch on REAP_SIMD.
//
// Reliability lanes: several read-path policies can observe one simulation
// pass, each through its own copy of the rel_ column (a lane). Policies
// never write tags, LRU, dirty bits or stats, so those stay shared; a fill
// leaves the ones count undrawn in every lane, the first reader draws it
// for every lane (CacheSetView::ones), and a write hit clears every lane's
// accumulation. Lane l's column starts lane_stride() entries
// after lane l-1's. Least-error-rate replacement reads the rel column to
// pick victims, so a cache using it has exactly one lane.
//
// Dispatch is compile-time: the access paths are templates over a Hooks
// type (the NullHooks shape below), so a concrete policy inlines into the
// loop and no access pays a virtual call. The engine's results are pinned
// against an independent reference model (tests/core/reference_model.hpp,
// tests/core/test_reference_model.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reap/common/assert.hpp"
#include "reap/common/rng.hpp"
#include "reap/sim/simd.hpp"
#include "reap/trace/datavalue.hpp"

namespace reap::sim {

// Hot per-line reliability metadata (used by the STT-MRAM L2; ignored for
// SRAM L1s). Kept to 8 bytes so a policy's per-way loop over an 8-way set
// stays within one host cache line.
struct LineRel {
  std::uint32_t ones = 0;               // popcount of the stored payload,
                                        // or kOnesUndrawn
  std::uint32_t reads_since_check = 0;  // concealed reads since last ECC
                                        // check / rewrite (paper's N - 1)
};

// LineRel::ones of a valid line whose count nobody has read yet. Read it
// through CacheSetView::ones, never directly.
inline constexpr std::uint32_t kOnesUndrawn = ~std::uint32_t{0};

class SetAssocCache;

// Cold per-line state: the dirty bit and the fifo stamp. `valid` mirrors
// the tag column's valid bit (the cache is the sole writer of both). The
// LRU stamp is NOT here -- it lives in its own hot column (lru_), because
// the per-hit touch and the per-fill victim scan walk it constantly and a
// set's stamps should sit on one host line, not be strided through this
// struct.
struct LineState {
  bool valid = false;
  bool dirty = false;
  std::uint64_t fill_stamp = 0;
};

// One set's SoA columns, as handed to the policy hooks: the tag|valid
// column (read-only) and lane 0's reliability column (mutable). Both
// columns must be readable and writable up to simd::padded_ways(ways)
// entries, with zeroed padding, as the cache's own columns are (tests
// build their views over arrays of that size).
// `lane_stride` is the distance in entries between two lanes' columns.
// `cache`/`set` locate the set in its cache, which draws undrawn ones
// counts; views over raw arrays have no cache and hold drawn counts only.
class CacheSetView {
 public:
  CacheSetView(const std::uint64_t* tagv, LineRel* rel, std::size_t ways,
               std::size_t lane_stride = 0, SetAssocCache* cache = nullptr,
               std::size_t set = 0)
      : tagv_(tagv),
        rel_(rel),
        ways_(ways),
        lane_stride_(lane_stride),
        cache_(cache),
        set_(set) {}

  // The same set seen through reliability lane `lane`.
  CacheSetView lane(std::size_t lane) const {
    return {tagv_, rel_ + lane * lane_stride_, ways_, lane_stride_, cache_,
            set_};
  }

  std::size_t size() const { return ways_; }
  bool valid(std::size_t way) const { return (tagv_[way] & 1) != 0; }
  LineRel& rel(std::size_t way) const { return rel_[way]; }

  // The ones count of `way` -- the one way to read LineRel::ones. A fill
  // leaves the count undrawn (kOnesUndrawn); the first read draws it from
  // the line's block through the cache's OnesProvider and stores it in
  // every lane, so a line lifetime draws at most once, whichever lane asks
  // first. Invalid ways read 0.
  std::uint32_t ones(std::size_t way) const;

  std::size_t set_index() const { return set_; }
  std::uint64_t tag(std::size_t way) const { return tagv_[way] >> 1; }

  // The policies' shared accumulation walk, whole set per vector:
  // reads_since_check += valid_bit for every way. Value-identical to the
  // per-way scalar loop (pinned by tests/sim/test_simd.cpp).
  void accumulate_valid() const {
    simd::accumulate_valid(tagv_, rel_, ways_);
  }

 private:
  const std::uint64_t* tagv_;
  LineRel* rel_;
  std::size_t ways_;
  std::size_t lane_stride_;
  SetAssocCache* cache_;
  std::size_t set_;
};

// lru/fifo/random are the classic policies; least_error_rate follows the
// idea of the paper's ref [13] (LER replacement for STT-RAM caches): prefer
// evicting the line with the most accumulated unchecked reads, so the
// blocks most at risk of uncorrectable errors leave the cache first.
// Ties fall back to LRU.
enum class ReplacementKind { lru, fifo, random_repl, least_error_rate };

struct CacheConfig {
  std::string name = "cache";
  std::size_t capacity_bytes = 32 * 1024;
  std::size_t ways = 4;
  std::size_t block_bytes = 64;
  ReplacementKind replacement = ReplacementKind::lru;

  std::size_t sets() const { return capacity_bytes / (ways * block_bytes); }
};

// The hooks shape every access path is templated over, as hooks that do
// nothing (the L1 instantiation). The L2 hooks of a simulation pass are
// read-path policies (core/policy_impl.hpp):
//   on_read_lookup(set, hit_way) -- a read lookup touched this set
//       (parallel-access caches physically read every way); the view spans
//       all k ways, valid or not; hit_way is the matching index or -1.
//   on_write_lookup(set, hit_way) -- a write lookup (L1 write-back)
//       compared tags; on a hit the line is about to be rewritten. Write
//       lookups read no data ways, so they cause no concealed reads.
//   on_fill(set, way) -- `way` was just filled (its ones count undrawn).
//   on_evict(set, way, dirty) -- `way` holds a still valid line about to
//       be evicted.
struct NullHooks {
  void on_read_lookup(CacheSetView, int) {}
  void on_write_lookup(CacheSetView, int) {}
  void on_fill(CacheSetView, std::size_t) {}
  void on_evict(CacheSetView, std::size_t, bool) {}
};

// Ones-count source for cached lines: either a DataValueModel, a fixed
// count for tests, or the cache's default (half the block bits).
//
// Contract: a provider is a pure function of the address -- the same line
// address always yields the same count (what makes experiments
// reproducible from a seed). The cache relies on this: it draws a line's
// count only when something reads it, and a write hit keeps the count as
// it is, drawn or not, because a draw at any other moment could only
// return the same value.
class OnesProvider {
 public:
  OnesProvider() = default;
  explicit OnesProvider(const trace::DataValueModel& model) : model_(&model) {}

  static OnesProvider fixed(std::uint32_t ones) {
    OnesProvider p;
    p.fixed_ = ones;
    p.has_fixed_ = true;
    return p;
  }

  std::uint32_t ones_for(std::uint64_t addr, std::uint32_t fallback) const {
    if (model_) return model_->ones_for(addr);
    return has_fixed_ ? fixed_ : fallback;
  }

 private:
  const trace::DataValueModel* model_ = nullptr;
  std::uint32_t fixed_ = 0;
  bool has_fixed_ = false;
};

struct CacheStats {
  std::uint64_t read_lookups = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t write_lookups = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  double read_hit_rate() const {
    return read_lookups == 0
               ? 0.0
               : static_cast<double>(read_hits) /
                     static_cast<double>(read_lookups);
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(CacheConfig cfg, std::uint64_t seed = 1);

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Returns the cache to its just-constructed state under `seed`: every
  // line invalid, stats and clock zeroed, ones provider cleared,
  // the replacement RNG re-seeded. Geometry and column storage are kept,
  // so a reset allocates nothing unless `lanes` needs more reliability
  // columns than any earlier reset did. The constructor ends in
  // reset(seed), so a reset cache and a fresh SetAssocCache(cfg, seed)
  // cannot drift apart. More than one lane requires a replacement policy
  // that does not read the rel column (anything but least_error_rate).
  //
  // The work is proportional to the pass being undone: only sets filled
  // since the last reset are re-zeroed (fill is the one way a line turns
  // valid, and nothing writes a set with no valid line). It falls back to
  // clearing every column on first use, when the lane columns grow, and
  // when most sets were filled. Invariant: every set not in touched_ is
  // in reset state in every allocated lane.
  void reset(std::uint64_t seed, std::size_t lanes = 1);

  // The distance in entries between two reliability lanes' columns.
  std::size_t lane_stride() const { return lane_stride_; }

  // Ones-count provider for cached lines; the default gives half the
  // block bits.
  void set_ones_provider(OnesProvider provider) { ones_ = provider; }

  struct Evicted {
    bool any = false;
    bool dirty = false;
    std::uint64_t addr = 0;
  };

  // Read lookup. Returns hit; does NOT fill on miss (caller decides).
  template <class Hooks>
  bool read(std::uint64_t addr, Hooks& hooks) {
    return read_pre(set_of(addr), tagv_of(addr), hooks);
  }

  // Pre-decoded read lookup: `set`/`tagv` must equal set_of(addr)/
  // tagv_of(addr) for the looked-up address (the batch pre-decode pass
  // hoists that derivation out of the per-access path).
  template <class Hooks>
  bool read_pre(std::size_t set, std::uint64_t tagv, Hooks& hooks) {
    ++stats_.read_lookups;
    const int way = find_way(set, tagv);
    hooks.on_read_lookup(view_of(set), way);
    if (way < 0) return false;
    ++stats_.read_hits;
    touch(set * stride_ + static_cast<std::size_t>(way));
    return true;
  }

  // Write lookup. On a hit the line is rewritten in place (dirty,
  // accumulation cleared). The ones count is kept, drawn or not:
  // providers are address-deterministic (the OnesProvider contract), so
  // the rewritten line's count is the same value. Returns hit.
  template <class Hooks>
  bool write(std::uint64_t addr, Hooks& hooks) {
    return write_pre(set_of(addr), tagv_of(addr), hooks);
  }

  // Pre-decoded write lookup; same contract as read_pre.
  template <class Hooks>
  bool write_pre(std::size_t set, std::uint64_t tagv, Hooks& hooks) {
    ++stats_.write_lookups;
    const int way = find_way(set, tagv);
    hooks.on_write_lookup(view_of(set), way);
    if (way < 0) return false;
    ++stats_.write_hits;
    const std::size_t idx = set * stride_ + static_cast<std::size_t>(way);
    state_[idx].dirty = true;
    // A rewrite refreshes every cell, whichever policy observes the line.
    for (std::size_t l = 0; l < lanes_; ++l)
      rel_[l * lane_stride_ + idx].reads_since_check = 0;
    touch(idx);
    return true;
  }

  // Installs addr's block, evicting if needed; returns the evicted victim.
  // Precondition (validated by tests, not re-scanned here — this is the
  // hot miss path): addr's block is not already present.
  template <class Hooks>
  Evicted fill(std::uint64_t addr, bool dirty, Hooks& hooks) {
    const std::size_t set = set_of(addr);
    const std::uint64_t tag = tag_of(addr);

    Evicted ev;
    const std::size_t w = victim_way(set);
    const std::size_t idx = set * stride_ + w;
    LineState& st = state_[idx];
    if (st.valid) {
      hooks.on_evict(view_of(set), w, st.dirty);
      ev.any = true;
      ev.dirty = st.dirty;
      ev.addr = line_addr(tags_[idx] >> 1, set);
      ++stats_.evictions;
      if (st.dirty) ++stats_.dirty_evictions;
    }
    if (!is_touched_[set]) {
      is_touched_[set] = 1;
      touched_.push_back(static_cast<std::uint32_t>(set));
    }
    tags_[idx] = (tag << 1) | 1;
    st.valid = true;
    st.dirty = dirty;
    for (std::size_t l = 0; l < lanes_; ++l)
      rel_[l * lane_stride_ + idx] = LineRel{kOnesUndrawn, 0};
    st.fill_stamp = ++clock_;
    lru_[idx] = clock_;
    ++stats_.fills;
    hooks.on_fill(view_of(set), w);
    return ev;
  }

  // True if addr's block is present (no stats/hook side effects).
  bool probe(std::uint64_t addr) const {
    return find_way(set_of(addr), tagv_of(addr)) >= 0;
  }

  // Invalidates addr's block if present; returns whether it was dirty.
  bool invalidate(std::uint64_t addr);

  // Snapshot of one line for tests and diagnostics; ones and
  // reads_since_check are reliability lane `lane`'s (lane < lanes of the
  // last reset). Reads the ones count like a policy does, so it draws an
  // undrawn count.
  struct LineInfo {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint32_t ones = 0;
    std::uint32_t reads_since_check = 0;
    std::uint64_t lru_stamp = 0;
    std::uint64_t fill_stamp = 0;
  };
  LineInfo line_info(std::size_t set, std::size_t way, std::size_t lane = 0);

  std::size_t set_of(std::uint64_t addr) const {
    return (addr >> offset_bits_) & (sets_ - 1);
  }
  std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> (offset_bits_ + index_bits_);
  }
  // Dense column entry: (tag << 1) | valid. Invalid entries are 0, which
  // never equals a valid key (those are odd), so the scan needs no
  // separate valid test.
  std::uint64_t tagv_of(std::uint64_t addr) const {
    return (tag_of(addr) << 1) | 1;
  }
  std::uint64_t line_addr(std::uint64_t tag, std::size_t set) const {
    return (tag << (offset_bits_ + index_bits_)) |
           (static_cast<std::uint64_t>(set) << offset_bits_);
  }

  // Geometry for the batch pre-decode pass (simd::predecode must produce
  // exactly set_of / tagv_of).
  unsigned offset_bits() const { return offset_bits_; }
  unsigned index_bits() const { return index_bits_; }

  // Software-prefetch a set's hot metadata (tag + LineRel + lru columns)
  // ahead of its lookup. A hint only: no stats, no state, no output
  // effect.
  void prefetch_set(std::size_t set) const {
    const std::size_t base = set * stride_;
    simd::prefetch(&tags_[base]);
    simd::prefetch(&rel_[base]);
    for (std::size_t l = 1; l < lanes_; ++l)
      simd::prefetch(&rel_[l * lane_stride_ + base]);
    simd::prefetch(&lru_[base]);
  }

 private:
  friend class CacheSetView;

  CacheSetView view_of(std::size_t set) {
    const std::size_t base = set * stride_;
    return {&tags_[base], &rel_[base], cfg_.ways, lane_stride_, this, set};
  }

  // The cold half of CacheSetView::ones: draws the count of the valid line
  // at (set, way) from its block address and stores it in every lane.
  std::uint32_t draw_ones(std::size_t set, std::size_t way);

  int find_way(std::size_t set, std::uint64_t tagv) const {
    return simd::find_way(&tags_[set * stride_], cfg_.ways, tagv);
  }

  // Victim selection. LRU is the hot case -- a single min-stamp scan over
  // the set's lru column. lru/fifo need no
  // separate invalid-ways pass: an invalid line's stamps are 0 and every
  // valid line's are >= 1 (clock_ pre-increments), so the min-stamp scan
  // already prefers the first invalid way — the same victim the two-pass
  // form picked. random/LER fall through to the cold helper.
  std::size_t victim_way(std::size_t set) {
    const std::size_t base = set * stride_;
    switch (cfg_.replacement) {
      case ReplacementKind::lru:
        return simd::victim_min(&lru_[base], cfg_.ways);
      case ReplacementKind::fifo: {
        const LineState* st = &state_[base];
        std::size_t v = 0;
        for (std::size_t w = 1; w < cfg_.ways; ++w) {
          if (st[w].fill_stamp < st[v].fill_stamp) v = w;
        }
        return v;
      }
      default:
        break;
    }
    return victim_way_rare(set);
  }

  std::size_t victim_way_rare(std::size_t set);
  // Returns one set to reset state in reliability lanes [0, lanes).
  void clear_set(std::size_t set, std::size_t lanes);
  void touch(std::size_t idx) { lru_[idx] = ++clock_; }

  CacheConfig cfg_;
  std::size_t sets_;
  std::size_t stride_;  // simd::padded_ways(cfg_.ways) entries per set
  std::size_t lanes_ = 1;
  std::size_t lane_stride_ = 0;  // entries per lane column, 64 B multiple
  unsigned offset_bits_;
  unsigned index_bits_;
  simd::AlignedVec<std::uint64_t> tags_;  // dense (tag << 1) | valid column
  simd::AlignedVec<LineRel> rel_;         // hot reliability columns
  simd::AlignedVec<std::uint64_t> lru_;   // hot lru-stamp column
  std::vector<LineState> state_;          // cold valid/dirty/fifo column
  // Sets filled since the last reset, in first-fill order, and a per-set
  // membership flag; what reset() re-zeroes.
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint8_t> is_touched_;
  bool cleared_ = false;  // every column has been zeroed at least once
  CacheStats stats_;
  OnesProvider ones_;
  std::uint32_t default_ones_ = 0;
  std::uint64_t clock_ = 0;
  common::Rng rng_;
};

inline std::uint32_t CacheSetView::ones(std::size_t way) const {
  const std::uint32_t ones = rel_[way].ones;
  if (ones != kOnesUndrawn) return ones;
  REAP_ASSERT(cache_ != nullptr);
  return cache_->draw_ones(set_, way);
}

}  // namespace reap::sim
