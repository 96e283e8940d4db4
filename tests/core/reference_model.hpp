// A deliberately naive reference simulator for the REAP read path, the
// oracle the engine's equivalence suites compare against.
//
// It shares none of the engine's simulation code. Caches are arrays of
// line structs scanned way by way (in the style of Ramulator2's MSCache
// and csapp's sram.c); every rule -- fetch buffer, write-allocate,
// non-inclusive L2, write-back, replacement -- is written from the
// contract in sim/hierarchy.hpp and sim/cache.hpp, not from their code.
// Each read-path policy is a switch over PolicyKind written from the
// paper's equations (core/read_path.hpp's taxonomy): every check goes to
// the unmemoized reliability::p_uncorrectable_block{,_acc,_reap}, every
// restore write through p_uncorrectable(codeword_bits, t, p_write). A
// line's ones count is DataValueModel::ones_for(block address), computed
// whenever a check needs it. Ops are pulled one at a time with
// TraceSource::next, and each lane counts its own cycles: one per
// instruction plus its L2 hit latency per L2 read hit and the memory
// latency per L2 read miss.
//
// What it takes from the rest of the code base is input, not logic: the
// op stream (trace::WorkloadTraceSource), the data-value model, the
// replacement RNG (common::Rng), the binomial tails, and the device
// operating point (MTJ probabilities, ECC codeword size, nvsim hit
// latency) a config implies.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "reap/common/histogram.hpp"
#include "reap/common/rng.hpp"
#include "reap/core/experiment.hpp"
#include "reap/sim/hierarchy.hpp"
#include "reap/trace/datavalue.hpp"
#include "reap/trace/workload.hpp"

namespace reap::core::testref {

// Reliability lanes one reference pass can carry.
inline constexpr std::size_t kMaxLanes = 3;

// One read-path policy observing the reference L2, with the device
// operating point its config implies.
struct RefLane {
  PolicyKind policy = PolicyKind::conventional_parallel;
  unsigned t = 1;                     // line-code correction capability
  double p_rd = 0.0;                  // per-cell per-read disturb prob.
  double p_write = 0.0;               // per-cell write failure prob.
  std::uint64_t codeword_bits = 0;    // cells a restore rewrites
  std::uint32_t hit_cycles = 0;       // L2 read-hit latency
  bool check_on_dirty_eviction = false;
  std::uint64_t scrub_every = 64;
};

// The lane a config implies (its device inputs derived the way the
// engine's config documents them).
RefLane lane_for(const ExperimentConfig& cfg);

// One lane's accounting over the measured window.
struct RefLaneResult {
  std::uint64_t cycles = 0;
  std::uint64_t checks = 0;  // attributed and unattributed
  std::uint64_t max_concealed = 0;
  double failure_prob_sum = 0.0;
  common::LogHistogram concealed;  // attributed checks only
  EnergyEvents events;
};

// One cache line. `block` is the line's block address; the tag is
// derived from it.
struct RefLine {
  bool valid = false;
  bool dirty = false;
  std::uint64_t block = 0;
  std::uint64_t lru_stamp = 0;   // last fill or hit
  std::uint64_t fifo_stamp = 0;  // fill
  std::array<std::uint64_t, kMaxLanes> reads_since_check{};
};

class RefCache {
 public:
  RefCache(const sim::CacheConfig& cfg, std::uint64_t seed);

  const sim::CacheConfig& config() const { return cfg_; }
  std::size_t sets() const { return lines_.size(); }
  std::uint64_t block_of(std::uint64_t addr) const;
  std::size_t set_of(std::uint64_t addr) const;
  std::uint64_t tag_of(const RefLine& line) const;

  std::vector<RefLine>& set(std::size_t s) { return lines_[s]; }
  const RefLine& line(std::size_t s, std::size_t way) const {
    return lines_[s][way];
  }
  // The way holding addr's block in `set`, or -1.
  int find(std::uint64_t addr) const;
  // Stamp a line as just used.
  void touch(RefLine& line) { line.lru_stamp = ++clock_; }
  // The way a fill of `set_index` replaces.
  std::size_t victim(std::size_t set_index);
  // Installs addr's block in `way`.
  void install(std::size_t set_index, std::size_t way, std::uint64_t addr,
               bool dirty);

  sim::CacheStats stats;

 private:
  sim::CacheConfig cfg_;
  std::vector<std::vector<RefLine>> lines_;
  std::uint64_t clock_ = 0;
  common::Rng rng_;
};

class ReferenceModel {
 public:
  // `cfgs` is one config or configs that pairwise core::shares_pass; the
  // walk (workload, hierarchy, seeds, budgets) comes from the first.
  explicit ReferenceModel(std::span<const ExperimentConfig> cfgs);

  // Warmup, an accounting reset, then the measured window: the schedule
  // of core::run_experiments.
  void run();

  std::uint64_t instructions() const { return instructions_; }
  sim::HierarchyStats stats() const;
  const RefLaneResult& lane(std::size_t i) const { return results_[i]; }
  std::size_t lanes() const { return lanes_.size(); }

  const RefCache& l1i() const { return l1i_; }
  const RefCache& l1d() const { return l1d_; }
  const RefCache& l2() const { return l2_; }

  // The ones count of an L2 line, as a check would read it.
  std::uint32_t ones(const RefLine& line) const;

 private:
  enum class Served { l1, l2, memory };

  void run_budget(std::uint64_t instructions);
  void reset_accounting();
  Served access_l1(RefCache& l1, std::uint64_t addr, bool is_store);
  Served read_l2(std::uint64_t addr);
  void write_l2(std::uint64_t addr);
  void fill_l2(std::uint64_t addr, bool dirty);

  void on_read(std::size_t lane, std::vector<RefLine>& set, int hit_way);
  void on_write(std::size_t lane, int hit_way);
  void on_fill(std::size_t lane);
  void on_evict(std::size_t lane, RefLine& victim);
  void conventional_read(std::size_t lane, std::vector<RefLine>& set,
                         int hit_way);
  // A checked read ending a window of `concealed` unchecked reads.
  void record_check(std::size_t lane, std::uint64_t concealed, double p);
  void record_unattributed(std::size_t lane, double p);

  ExperimentConfig walk_;
  std::vector<RefLane> lanes_;
  std::vector<RefLaneResult> results_;
  std::vector<std::uint64_t> scrub_countdown_;
  trace::DataValueModel values_;
  trace::WorkloadTraceSource source_;
  RefCache l1i_, l1d_, l2_;
  std::uint64_t mem_reads_ = 0, mem_writes_ = 0;
  std::optional<std::uint64_t> last_fetch_block_;
  std::optional<trace::MemOp> pending_;  // the fetch past the last budget
  std::uint64_t instructions_ = 0;
};

}  // namespace reap::core::testref
