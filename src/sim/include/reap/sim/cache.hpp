// Set-associative cache with a pluggable read-path observer.
//
// The cache implements the *mechanism* shared by every read-path variant:
// tag match, replacement, dirty tracking, per-line reliability metadata.
// The *policy* differences the paper studies (who gets ECC-checked when,
// which reads count as concealed) live in core read-path implementations,
// which the cache invokes on every access.
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
// installs the shared ones count in every lane and a write hit clears
// every lane's accumulation. Lane l's column starts lane_stride() entries
// after lane l-1's. Least-error-rate replacement reads the rel column to
// pick victims, so a cache using it has exactly one lane.
//
// Dispatch is compile-time: the access paths are templates over a Hooks
// type with the L2PolicyHooks shape, so a concrete policy inlines into the
// loop. The runtime L2PolicyHooks interface survives as VirtualHooks, a
// thin adapter the untemplated convenience overloads route through — tests
// and exploratory code keep injecting observers dynamically while the
// campaign engine pays no virtual call per access.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reap/common/rng.hpp"
#include "reap/sim/simd.hpp"
#include "reap/trace/datavalue.hpp"

namespace reap::sim {

// Hot per-line reliability metadata (used by the STT-MRAM L2; ignored for
// SRAM L1s). Kept to 8 bytes so a policy's per-way loop over an 8-way set
// stays within one host cache line.
struct LineRel {
  std::uint32_t ones = 0;               // popcount of the stored payload
  std::uint32_t reads_since_check = 0;  // concealed reads since last ECC
                                        // check / rewrite (paper's N - 1)
};

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
// column (read-only) and lane 0's reliability column (mutable). `padded`
// says both columns are readable/writable up to simd::padded_ways(ways)
// entries with zeroed padding -- true for views the cache builds over its
// own columns, false for views tests construct over raw arrays.
// `lane_stride` is the distance in entries between two lanes' columns.
class CacheSetView {
 public:
  CacheSetView(const std::uint64_t* tagv, LineRel* rel, std::size_t ways,
               bool padded = false, std::size_t lane_stride = 0)
      : tagv_(tagv),
        rel_(rel),
        ways_(ways),
        padded_(padded),
        lane_stride_(lane_stride) {}

  // The same set seen through reliability lane `lane`.
  CacheSetView lane(std::size_t lane) const {
    return {tagv_, rel_ + lane * lane_stride_, ways_, padded_, lane_stride_};
  }

  std::size_t size() const { return ways_; }
  bool valid(std::size_t way) const { return (tagv_[way] & 1) != 0; }
  // 1 for a valid way, 0 otherwise; lets accumulation loops stay
  // branchless (counter += valid_bit).
  std::uint32_t valid_bit(std::size_t way) const {
    return static_cast<std::uint32_t>(tagv_[way] & 1);
  }
  LineRel& rel(std::size_t way) const { return rel_[way]; }

  // The policies' shared accumulation walk, whole set per vector:
  // reads_since_check += valid_bit for every way. Value-identical to the
  // per-way scalar loop (pinned by tests/sim/test_simd.cpp); the vector
  // form needs the padded-column guarantee.
  void accumulate_valid() const {
    if (padded_) {
      simd::accumulate_valid(tagv_, rel_, ways_);
    } else {
      for (std::size_t w = 0; w < ways_; ++w)
        rel_[w].reads_since_check += valid_bit(w);
    }
  }

 private:
  const std::uint64_t* tagv_;
  LineRel* rel_;
  std::size_t ways_;
  bool padded_;
  std::size_t lane_stride_;
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

// Observer for the read path; see core/read_path.hpp for implementations.
// Concrete (non-virtual) hook types with the same shape plug into the
// templated access paths directly; this interface is the runtime-dispatch
// fallback.
class L2PolicyHooks {
 public:
  virtual ~L2PolicyHooks() = default;

  // A read lookup touched this set (parallel-access caches physically read
  // every way). The view spans all k ways, valid or not; hit_way is the
  // matching index or -1 on a miss.
  virtual void on_read_lookup(CacheSetView set, int hit_way) = 0;

  // A write lookup (L1 writeback / store update) touched this set; on a hit
  // the line is about to be rewritten. Write lookups compare tags but do
  // not read the data ways, so they cause no concealed reads.
  virtual void on_write_lookup(CacheSetView set, int hit_way) = 0;

  // `rel` belongs to a line that was just filled (ones already set). In a
  // multi-lane cache it is lane 0's entry; lane l's entry of the same line
  // is l * lane_stride() entries further on.
  virtual void on_fill(LineRel& rel) = 0;

  // `rel` belongs to a (still valid) line about to be evicted; lane 0's
  // entry, as for on_fill.
  virtual void on_evict(LineRel& rel, bool dirty) = 0;
};

// Static hooks that do nothing: the L1 instantiation of the access paths.
struct NullHooks {
  void on_read_lookup(CacheSetView, int) {}
  void on_write_lookup(CacheSetView, int) {}
  void on_fill(LineRel&) {}
  void on_evict(LineRel&, bool) {}
};

// Adapter presenting an optional runtime observer through the static hooks
// shape; the untemplated access overloads route through it.
struct VirtualHooks {
  L2PolicyHooks* hooks = nullptr;

  void on_read_lookup(CacheSetView set, int hit_way) {
    if (hooks) hooks->on_read_lookup(set, hit_way);
  }
  void on_write_lookup(CacheSetView set, int hit_way) {
    if (hooks) hooks->on_write_lookup(set, hit_way);
  }
  void on_fill(LineRel& rel) {
    if (hooks) hooks->on_fill(rel);
  }
  void on_evict(LineRel& rel, bool dirty) {
    if (hooks) hooks->on_evict(rel, dirty);
  }
};

// Ones-count source for filled lines. A concrete type (not a type-erased
// std::function) so the fill path is a predictable branch plus a direct
// call: either a DataValueModel, a fixed count for tests, or the cache's
// default (half the block bits).
//
// Contract: a provider is a pure function of the address -- the same line
// address always yields the same count (what makes experiments
// reproducible from a seed). The cache relies on this: a write hit keeps
// the count installed at fill instead of re-deriving it, because the
// re-derivation could only return the same value.
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

  // Software-prefetch whatever ones_for(addr, ...) would probe (the
  // model's memo slot); a no-op for fixed/default providers.
  void prefetch(std::uint64_t addr) const {
    if (model_) model_->prefetch(addr);
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
  // line invalid, stats and clock zeroed, hooks and ones provider cleared,
  // the replacement RNG re-seeded. Geometry and column storage are kept,
  // so a reset allocates nothing unless `lanes` needs more reliability
  // columns than any earlier reset did. The constructor ends in
  // reset(seed), so a reset cache and a fresh SetAssocCache(cfg, seed)
  // cannot drift apart. More than one lane requires a replacement policy
  // that does not read the rel column (anything but least_error_rate).
  void reset(std::uint64_t seed, std::size_t lanes = 1);

  // The distance in entries between two reliability lanes' columns.
  std::size_t lane_stride() const { return lane_stride_; }

  // Runtime policy observer; may be null (L1 caches). Used only by the
  // untemplated access overloads.
  void set_hooks(L2PolicyHooks* hooks) { hooks_ = hooks; }
  L2PolicyHooks* hooks() const { return hooks_; }

  // Ones-count provider for filled/rewritten lines; default keeps ones at
  // half the block bits.
  void set_ones_provider(OnesProvider provider) { ones_ = provider; }

  struct Evicted {
    bool any = false;
    bool dirty = false;
    std::uint64_t addr = 0;
  };

  // Read lookup. Returns hit; does NOT fill on miss (caller decides).
  //
  // The lookup paths are templated on a kernel flavor as well as the hooks
  // type. kVector=true (the default) scans with the build's wide kernels;
  // kVector=false keeps the pre-vectorization scalar walks. The two
  // flavors are value-identical (pinned by tests/sim/test_simd.cpp); the
  // scalar flavor exists so the plain batched drive loop -- bench_e2e's
  // E2E/static baseline -- stays a faithful reconstruction of the
  // pre-vectorization engine that the E2E/simd series is gated against.
  template <bool kVector = true, class Hooks>
  bool read(std::uint64_t addr, Hooks& hooks) {
    return read_pre<kVector>(set_of(addr), tagv_of(addr), hooks);
  }

  // Pre-decoded read lookup: `set`/`tagv` must equal set_of(addr)/
  // tagv_of(addr) for the looked-up address (the batch pre-decode pass
  // hoists that derivation out of the per-access path).
  template <bool kVector = true, class Hooks>
  bool read_pre(std::size_t set, std::uint64_t tagv, Hooks& hooks) {
    ++stats_.read_lookups;
    const int way = find_way<kVector>(set, tagv);
    hooks.on_read_lookup(view_of<kVector>(set), way);
    if (way < 0) return false;
    ++stats_.read_hits;
    touch(set * stride_ + static_cast<std::size_t>(way));
    return true;
  }

  // Write lookup. On a hit the line is rewritten in place (dirty,
  // accumulation cleared). The installed ones count is kept: providers
  // are address-deterministic (the OnesProvider contract), so re-deriving
  // it for the same line is the same value -- the hot path skips the
  // probe. Returns hit.
  template <bool kVector = true, class Hooks>
  bool write(std::uint64_t addr, Hooks& hooks) {
    return write_pre<kVector>(set_of(addr), tagv_of(addr), hooks);
  }

  // Pre-decoded write lookup; same contract as read_pre.
  template <bool kVector = true, class Hooks>
  bool write_pre(std::size_t set, std::uint64_t tagv, Hooks& hooks) {
    ++stats_.write_lookups;
    const int way = find_way<kVector>(set, tagv);
    hooks.on_write_lookup(view_of<kVector>(set), way);
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
  // hot miss path): addr's block is not already present. kVector flavors
  // the LRU victim scan, same contract as the lookup paths.
  template <bool kVector = true, class Hooks>
  Evicted fill(std::uint64_t addr, bool dirty, Hooks& hooks) {
    const std::size_t set = set_of(addr);
    const std::uint64_t tag = tag_of(addr);

    Evicted ev;
    const std::size_t w = victim_way<kVector>(set);
    const std::size_t idx = set * stride_ + w;
    LineState& st = state_[idx];
    if (st.valid) {
      hooks.on_evict(rel_[idx], st.dirty);
      ev.any = true;
      ev.dirty = st.dirty;
      ev.addr = line_addr(tags_[idx] >> 1, set);
      ++stats_.evictions;
      if (st.dirty) ++stats_.dirty_evictions;
    }
    tags_[idx] = (tag << 1) | 1;
    st.valid = true;
    st.dirty = dirty;
    const LineRel filled{ones_.ones_for(addr, default_ones_), 0};
    for (std::size_t l = 0; l < lanes_; ++l)
      rel_[l * lane_stride_ + idx] = filled;
    st.fill_stamp = ++clock_;
    lru_[idx] = clock_;
    ++stats_.fills;
    hooks.on_fill(rel_[idx]);
    return ev;
  }

  // Untemplated overloads: dispatch through the configured runtime hooks.
  bool read(std::uint64_t addr) {
    VirtualHooks h{hooks_};
    return read(addr, h);
  }
  bool write(std::uint64_t addr) {
    VirtualHooks h{hooks_};
    return write(addr, h);
  }
  Evicted fill(std::uint64_t addr, bool dirty) {
    VirtualHooks h{hooks_};
    return fill(addr, dirty, h);
  }

  // True if addr's block is present (no stats/hook side effects).
  bool probe(std::uint64_t addr) const {
    return find_way(set_of(addr), tagv_of(addr)) >= 0;
  }

  // Invalidates addr's block if present; returns whether it was dirty.
  bool invalidate(std::uint64_t addr);

  // Snapshot of one line for tests and diagnostics; ones and
  // reads_since_check are lane 0's.
  struct LineInfo {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint32_t ones = 0;
    std::uint32_t reads_since_check = 0;
    std::uint64_t lru_stamp = 0;
    std::uint64_t fill_stamp = 0;
  };
  LineInfo line_info(std::size_t set, std::size_t way) const;

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

  // Software-prefetch the ones-memo slot that filling/rewriting addr's
  // block would probe (the data-value model's table is far larger than
  // the set columns, and a low-locality op stream misses it constantly).
  // Hint only, like prefetch_set.
  void prefetch_ones(std::uint64_t addr) const { ones_.prefetch(addr); }

 private:
  // The view's padded flag doubles as the accumulate_valid routing switch:
  // scalar-flavor lookups hand the policies a view that accumulates with
  // the scalar walk, vector-flavor lookups one that uses the wide kernel.
  // (The columns themselves are padded either way.)
  template <bool kVector = true>
  CacheSetView view_of(std::size_t set) {
    const std::size_t base = set * stride_;
    return {&tags_[base], &rel_[base], cfg_.ways, /*padded=*/kVector,
            lane_stride_};
  }

  template <bool kVector = true>
  int find_way(std::size_t set, std::uint64_t tagv) const {
    if constexpr (kVector)
      return simd::find_way(&tags_[set * stride_], cfg_.ways, tagv);
    else
      return simd::find_way_scalar(&tags_[set * stride_], cfg_.ways, tagv);
  }

  // Victim selection. LRU is the hot case -- a single min-stamp scan over
  // the set's lru column -- and is the flavored one. lru/fifo need no
  // separate invalid-ways pass: an invalid line's stamps are 0 and every
  // valid line's are >= 1 (clock_ pre-increments), so the min-stamp scan
  // already prefers the first invalid way — the same victim the two-pass
  // form picked. random/LER fall through to the cold helper.
  template <bool kVector = true>
  std::size_t victim_way(std::size_t set) {
    const std::size_t base = set * stride_;
    switch (cfg_.replacement) {
      case ReplacementKind::lru:
        if constexpr (kVector)
          return simd::victim_min(&lru_[base], cfg_.ways);
        else
          return simd::victim_min_scalar(&lru_[base], cfg_.ways);
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
  CacheStats stats_;
  L2PolicyHooks* hooks_ = nullptr;
  OnesProvider ones_;
  std::uint32_t default_ones_ = 0;
  std::uint64_t clock_ = 0;
  common::Rng rng_;
};

}  // namespace reap::sim
