#include "reference_model.hpp"

#include "reap/common/assert.hpp"
#include "reap/mtj/read_disturb.hpp"
#include "reap/mtj/write_model.hpp"
#include "reap/nvsim/cache_model.hpp"
#include "reap/reliability/binomial.hpp"

namespace reap::core::testref {

RefLane lane_for(const ExperimentConfig& cfg) {
  const std::uint64_t line_bits = cfg.hierarchy.l2.block_bytes * 8;
  const auto code = make_line_code(line_bits, cfg.ecc_t);
  nvsim::CacheGeometry geom;
  geom.capacity_bytes = cfg.hierarchy.l2.capacity_bytes;
  geom.ways = cfg.hierarchy.l2.ways;
  geom.block_bytes = cfg.hierarchy.l2.block_bytes;
  geom.data_cell = nvsim::CellType::stt_mram;
  const nvsim::CacheModel circuit(geom, cfg.tech, *code, &cfg.mtj);

  RefLane lane;
  lane.policy = cfg.policy;
  lane.t = cfg.ecc_t;
  lane.p_rd = mtj::read_disturb_probability(cfg.mtj);
  lane.p_write = mtj::write_failure_probability(cfg.mtj);
  lane.codeword_bits = code->codeword_bits();
  lane.hit_cycles =
      l2_hit_cycles_for(cfg.policy, circuit.timing(), cfg.clock_ghz);
  lane.check_on_dirty_eviction = cfg.check_on_dirty_eviction;
  lane.scrub_every = cfg.scrub_every;
  return lane;
}

// ------------------------------------------------------------------ cache

RefCache::RefCache(const sim::CacheConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      lines_(cfg.capacity_bytes / (cfg.ways * cfg.block_bytes),
             std::vector<RefLine>(cfg.ways)),
      rng_(seed) {}

std::uint64_t RefCache::block_of(std::uint64_t addr) const {
  return addr / cfg_.block_bytes * cfg_.block_bytes;
}

std::size_t RefCache::set_of(std::uint64_t addr) const {
  return static_cast<std::size_t>(addr / cfg_.block_bytes % sets());
}

std::uint64_t RefCache::tag_of(const RefLine& line) const {
  return line.block / (cfg_.block_bytes * sets());
}

int RefCache::find(std::uint64_t addr) const {
  const std::vector<RefLine>& s = lines_[set_of(addr)];
  for (std::size_t w = 0; w < s.size(); ++w)
    if (s[w].valid && s[w].block == block_of(addr)) return static_cast<int>(w);
  return -1;
}

// Invalid ways first, in way order; then the replacement policy. LER
// evicts the line with the most unchecked reads (lane 0: such a cache has
// one lane), the least recently used one on a tie.
std::size_t RefCache::victim(std::size_t set_index) {
  const std::vector<RefLine>& s = lines_[set_index];
  for (std::size_t w = 0; w < s.size(); ++w)
    if (!s[w].valid) return w;
  std::size_t v = 0;
  switch (cfg_.replacement) {
    case sim::ReplacementKind::lru:
      for (std::size_t w = 1; w < s.size(); ++w)
        if (s[w].lru_stamp < s[v].lru_stamp) v = w;
      return v;
    case sim::ReplacementKind::fifo:
      for (std::size_t w = 1; w < s.size(); ++w)
        if (s[w].fifo_stamp < s[v].fifo_stamp) v = w;
      return v;
    case sim::ReplacementKind::random_repl:
      return static_cast<std::size_t>(rng_.below(s.size()));
    case sim::ReplacementKind::least_error_rate:
      for (std::size_t w = 1; w < s.size(); ++w) {
        const std::uint64_t rw = s[w].reads_since_check[0];
        const std::uint64_t rv = s[v].reads_since_check[0];
        if (rw > rv || (rw == rv && s[w].lru_stamp < s[v].lru_stamp)) v = w;
      }
      return v;
  }
  return v;
}

void RefCache::install(std::size_t set_index, std::size_t way,
                       std::uint64_t addr, bool dirty) {
  RefLine& line = lines_[set_index][way];
  line = RefLine{};
  line.valid = true;
  line.dirty = dirty;
  line.block = block_of(addr);
  line.fifo_stamp = line.lru_stamp = ++clock_;
  ++stats.fills;
}

// ------------------------------------------------------------- hierarchy

ReferenceModel::ReferenceModel(std::span<const ExperimentConfig> cfgs)
    : walk_(cfgs.front()),
      values_(walk_.workload.values, walk_.hierarchy.l2.block_bytes * 8,
              walk_.workload.seed ^ 0xABCD),
      source_(walk_.workload),
      // The per-cache replacement seeds sim/hierarchy.hpp documents.
      l1i_(walk_.hierarchy.l1i, walk_.seed * 3 + 1),
      l1d_(walk_.hierarchy.l1d, walk_.seed * 5 + 2),
      l2_(walk_.hierarchy.l2, walk_.seed * 7 + 3) {
  REAP_EXPECTS(!cfgs.empty() && cfgs.size() <= kMaxLanes);
  for (const ExperimentConfig& cfg : cfgs) {
    lanes_.push_back(lane_for(cfg));
    scrub_countdown_.push_back(cfg.scrub_every);
  }
  results_.resize(lanes_.size());
}

void ReferenceModel::run() {
  if (walk_.warmup_instructions > 0) {
    run_budget(walk_.warmup_instructions);
    reset_accounting();
  }
  run_budget(walk_.instructions);
}

void ReferenceModel::reset_accounting() {
  l1i_.stats = l1d_.stats = l2_.stats = {};
  mem_reads_ = mem_writes_ = 0;
  instructions_ = 0;
  for (RefLaneResult& r : results_) r = RefLaneResult();
}

sim::HierarchyStats ReferenceModel::stats() const {
  sim::HierarchyStats s;
  s.l1i = l1i_.stats;
  s.l1d = l1d_.stats;
  s.l2 = l2_.stats;
  s.mem_reads = mem_reads_;
  s.mem_writes = mem_writes_;
  return s;
}

std::uint32_t ReferenceModel::ones(const RefLine& line) const {
  return values_.ones_for(line.block);
}

// Executes ops until `instructions` instruction fetches have run; the
// fetch that would exceed the budget waits for the next call, so an
// instruction's data ops always run with it.
void ReferenceModel::run_budget(std::uint64_t instructions) {
  std::uint64_t executed = 0;
  for (;;) {
    trace::MemOp op;
    if (pending_) {
      op = *pending_;
      pending_.reset();
    } else if (!source_.next(op)) {
      return;
    }
    Served served = Served::l1;
    switch (op.type) {
      case trace::OpType::inst_fetch: {
        if (executed == instructions) {
          pending_ = op;
          return;
        }
        ++executed;
        ++instructions_;
        for (RefLaneResult& r : results_) ++r.cycles;
        // Fetch buffer: a fetch inside the block of the previous fetch
        // does not access the L1I.
        const std::uint64_t block = op.addr / walk_.hierarchy.l1i.block_bytes;
        if (last_fetch_block_ == block) break;
        last_fetch_block_ = block;
        served = access_l1(l1i_, op.addr, false);
        break;
      }
      case trace::OpType::load:
        served = access_l1(l1d_, op.addr, false);
        break;
      case trace::OpType::store:
        served = access_l1(l1d_, op.addr, true);
        break;
    }
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      if (served == Served::l2) results_[l].cycles += lanes_[l].hit_cycles;
      if (served == Served::memory)
        results_[l].cycles += walk_.hierarchy.mem_cycles;
    }
  }
}

// An L1 miss reads the block from the L2 (stores allocate too), then
// installs it, dirty for a store; a dirty L1 victim is written back to the
// L2, and the allocating store then writes the new line.
ReferenceModel::Served ReferenceModel::access_l1(RefCache& l1,
                                                 std::uint64_t addr,
                                                 bool is_store) {
  const auto write_hit = [&] {
    ++l1.stats.write_lookups;
    const int way = l1.find(addr);
    if (way < 0) return false;
    ++l1.stats.write_hits;
    RefLine& line = l1.set(l1.set_of(addr))[static_cast<std::size_t>(way)];
    line.dirty = true;
    l1.touch(line);
    return true;
  };
  if (is_store) {
    if (write_hit()) return Served::l1;
  } else {
    ++l1.stats.read_lookups;
    const int way = l1.find(addr);
    if (way >= 0) {
      ++l1.stats.read_hits;
      l1.touch(l1.set(l1.set_of(addr))[static_cast<std::size_t>(way)]);
      return Served::l1;
    }
  }

  const Served served = read_l2(addr);
  const std::size_t s = l1.set_of(addr);
  const std::size_t way = l1.victim(s);
  const RefLine victim = l1.set(s)[way];
  if (victim.valid) {
    ++l1.stats.evictions;
    if (victim.dirty) ++l1.stats.dirty_evictions;
  }
  l1.install(s, way, addr, is_store);
  if (victim.valid && victim.dirty) write_l2(victim.block);
  if (is_store) write_hit();
  return served;
}

// A demand read: every lane's policy observes the lookup; a miss reads
// memory and installs the block clean.
ReferenceModel::Served ReferenceModel::read_l2(std::uint64_t addr) {
  ++l2_.stats.read_lookups;
  const int way = l2_.find(addr);
  std::vector<RefLine>& set = l2_.set(l2_.set_of(addr));
  for (std::size_t l = 0; l < lanes_.size(); ++l) on_read(l, set, way);
  if (way >= 0) {
    ++l2_.stats.read_hits;
    l2_.touch(set[static_cast<std::size_t>(way)]);
    return Served::l2;
  }
  ++mem_reads_;
  fill_l2(addr, false);
  return Served::memory;
}

// An L1 write-back: a hit rewrites the line (dirty, every lane's window
// closed); a miss write-allocates from memory, dirty.
void ReferenceModel::write_l2(std::uint64_t addr) {
  ++l2_.stats.write_lookups;
  const int way = l2_.find(addr);
  for (std::size_t l = 0; l < lanes_.size(); ++l) on_write(l, way);
  if (way >= 0) {
    ++l2_.stats.write_hits;
    RefLine& line = l2_.set(l2_.set_of(addr))[static_cast<std::size_t>(way)];
    line.dirty = true;
    line.reads_since_check.fill(0);
    l2_.touch(line);
    return;
  }
  ++mem_reads_;
  fill_l2(addr, true);
}

void ReferenceModel::fill_l2(std::uint64_t addr, bool dirty) {
  const std::size_t s = l2_.set_of(addr);
  const std::size_t way = l2_.victim(s);
  RefLine& victim = l2_.set(s)[way];
  if (victim.valid) {
    for (std::size_t l = 0; l < lanes_.size(); ++l) on_evict(l, victim);
    ++l2_.stats.evictions;
    if (victim.dirty) {
      ++l2_.stats.dirty_evictions;
      ++mem_writes_;
    }
  }
  l2_.install(s, way, addr, dirty);
  for (std::size_t l = 0; l < lanes_.size(); ++l) on_fill(l);
}

// --------------------------------------------------------------- policies

void ReferenceModel::record_check(std::size_t lane, std::uint64_t concealed,
                                  double p) {
  RefLaneResult& r = results_[lane];
  r.failure_prob_sum += p;
  ++r.checks;
  r.concealed.add(concealed, p);
  if (concealed > r.max_concealed) r.max_concealed = concealed;
}

void ReferenceModel::record_unattributed(std::size_t lane, double p) {
  results_[lane].failure_prob_sum += p;
  ++results_[lane].checks;
}

// Fig. 2: every way's data is sensed with the tag compare, so every valid
// line takes one more read; only the hit way goes through the decoder,
// failing with Eq. 3 over its whole window (the concealed reads plus this
// one), which the check then closes.
void ReferenceModel::conventional_read(std::size_t lane,
                                       std::vector<RefLine>& set,
                                       int hit_way) {
  const RefLane& cfg = lanes_[lane];
  EnergyEvents& ev = results_[lane].events;
  ++ev.lookups;
  ++ev.tag_reads;
  ev.way_data_reads += set.size();
  for (RefLine& line : set)
    if (line.valid) ++line.reads_since_check[lane];
  if (hit_way < 0) return;
  ++ev.ecc_decodes;
  RefLine& hit = set[static_cast<std::size_t>(hit_way)];
  const std::uint64_t reads = hit.reads_since_check[lane];
  record_check(lane, reads - 1,
               reliability::p_uncorrectable_block_acc(ones(hit), reads,
                                                      cfg.p_rd, cfg.t));
  hit.reads_since_check[lane] = 0;
}

void ReferenceModel::on_read(std::size_t lane, std::vector<RefLine>& set,
                             int hit_way) {
  const RefLane& cfg = lanes_[lane];
  EnergyEvents& ev = results_[lane].events;
  switch (cfg.policy) {
    case PolicyKind::conventional_parallel:
      conventional_read(lane, set, hit_way);
      return;
    case PolicyKind::reap: {
      // Fig. 4: a decoder per way, all firing on every access; the hit
      // way's delivery needs each of its window's reads to have passed
      // its own check (Eq. 6).
      ++ev.lookups;
      ++ev.tag_reads;
      ev.way_data_reads += set.size();
      ev.ecc_decodes += set.size();
      for (RefLine& line : set)
        if (line.valid) ++line.reads_since_check[lane];
      if (hit_way < 0) return;
      RefLine& hit = set[static_cast<std::size_t>(hit_way)];
      const std::uint64_t reads = hit.reads_since_check[lane];
      record_check(lane, reads - 1,
                   reliability::p_uncorrectable_block_reap(ones(hit), reads,
                                                           cfg.p_rd, cfg.t));
      hit.reads_since_check[lane] = 0;
      return;
    }
    case PolicyKind::serial_tag_then_data: {
      // Data is read after the tag compare, hit way only: no concealed
      // reads, every check a single read (Eq. 2).
      ++ev.lookups;
      ++ev.tag_reads;
      if (hit_way < 0) return;
      ++ev.way_data_reads;
      ++ev.ecc_decodes;
      const RefLine& hit = set[static_cast<std::size_t>(hit_way)];
      record_check(lane, 0,
                   reliability::p_uncorrectable_block(ones(hit), cfg.p_rd,
                                                      cfg.t));
      return;
    }
    case PolicyKind::disruptive_restore: {
      // Every sensed valid way is written back at once: no window
      // survives, but each restore can fail as a codeword write. The hit
      // way is also checked as a single read.
      ++ev.lookups;
      ++ev.tag_reads;
      ev.way_data_reads += set.size();
      const double p_restore = reliability::p_uncorrectable(
          cfg.codeword_bits, cfg.t, cfg.p_write);
      for (std::size_t w = 0; w < set.size(); ++w) {
        RefLine& line = set[w];
        if (!line.valid) continue;
        ++ev.way_data_writes;
        if (static_cast<int>(w) == hit_way) {
          ++ev.ecc_decodes;
          record_check(lane, line.reads_since_check[lane],
                       reliability::p_uncorrectable_block(ones(line),
                                                          cfg.p_rd, cfg.t) +
                           p_restore);
        } else {
          record_unattributed(lane, p_restore);
        }
        line.reads_since_check[lane] = 0;
      }
      return;
    }
    case PolicyKind::scrub_piggyback: {
      // Conventional, except every scrub_every-th read lookup checks
      // every valid way, closing each window with Eq. 3 (this read
      // included).
      if (--scrub_countdown_[lane] != 0) {
        conventional_read(lane, set, hit_way);
        return;
      }
      scrub_countdown_[lane] = cfg.scrub_every;
      ++ev.lookups;
      ++ev.tag_reads;
      ev.way_data_reads += set.size();
      ev.ecc_decodes += set.size();
      for (RefLine& line : set) {
        if (!line.valid) continue;
        const std::uint64_t concealed = line.reads_since_check[lane];
        record_check(lane, concealed,
                     reliability::p_uncorrectable_block_acc(
                         ones(line), concealed + 1, cfg.p_rd, cfg.t));
        line.reads_since_check[lane] = 0;
      }
      return;
    }
  }
}

// A write lookup compares tags without sensing data; a hit rewrites and
// re-encodes the line.
void ReferenceModel::on_write(std::size_t lane, int hit_way) {
  EnergyEvents& ev = results_[lane].events;
  ++ev.lookups;
  ++ev.tag_reads;
  if (hit_way < 0) return;
  ++ev.way_data_writes;
  ++ev.ecc_encodes;
  ++ev.tag_writes;
}

void ReferenceModel::on_fill(std::size_t lane) {
  EnergyEvents& ev = results_[lane].events;
  ++ev.way_data_writes;
  ++ev.ecc_encodes;
  ++ev.tag_writes;
}

// The dirty-eviction check (an extension): a dirty victim is read out
// through the decoder before its write-back, realizing its window under
// the policy's own formula.
void ReferenceModel::on_evict(std::size_t lane, RefLine& victim) {
  const RefLane& cfg = lanes_[lane];
  if (!cfg.check_on_dirty_eviction || !victim.dirty) return;
  EnergyEvents& ev = results_[lane].events;
  ++ev.ecc_decodes;
  ++ev.way_data_reads;
  const std::uint64_t reads = victim.reads_since_check[lane] + 1;
  double p = 0.0;
  switch (cfg.policy) {
    case PolicyKind::conventional_parallel:
    case PolicyKind::scrub_piggyback:
      p = reliability::p_uncorrectable_block_acc(ones(victim), reads,
                                                 cfg.p_rd, cfg.t);
      break;
    case PolicyKind::reap:
      p = reliability::p_uncorrectable_block_reap(ones(victim), reads,
                                                  cfg.p_rd, cfg.t);
      break;
    case PolicyKind::serial_tag_then_data:
    case PolicyKind::disruptive_restore:
      p = reliability::p_uncorrectable_block(ones(victim), cfg.p_rd, cfg.t);
      break;
  }
  record_unattributed(lane, p);
  victim.reads_since_check[lane] = 0;
}

}  // namespace reap::core::testref
