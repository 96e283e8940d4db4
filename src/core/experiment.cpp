#include "reap/core/experiment.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <optional>
#include <vector>

#include "reap/common/assert.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/ecc/bch.hpp"
#include "reap/ecc/secded.hpp"
#include "reap/mtj/read_disturb.hpp"
#include "reap/mtj/write_model.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/trace/datavalue.hpp"

namespace reap::core {

std::unique_ptr<ecc::Code> make_line_code(std::size_t data_bits, unsigned t) {
  REAP_EXPECTS(t >= 1);
  if (t == 1) return std::make_unique<ecc::SecDedCode>(data_bits);
  return std::make_unique<ecc::BchCode>(data_bits, t);
}

std::uint32_t l2_hit_cycles_for(PolicyKind kind,
                                const nvsim::ReadPathTiming& timing,
                                double clock_ghz) {
  // Fixed pipeline overhead (request queue, controller, bus turnaround)
  // on top of the array path.
  constexpr std::uint32_t kControllerCycles = 6;
  const double period_ns = 1.0 / clock_ghz;

  double path_ns = 0.0;
  switch (kind) {
    case PolicyKind::conventional_parallel:
      path_ns = common::in_nanoseconds(timing.conventional_total);
      break;
    case PolicyKind::reap:
      path_ns = common::in_nanoseconds(timing.reap_total);
      break;
    case PolicyKind::serial_tag_then_data:
      path_ns = common::in_nanoseconds(timing.tag_path + timing.data_path +
                                       timing.ecc_decode + timing.mux);
      break;
    case PolicyKind::disruptive_restore:
      // Conventional path plus the restore write occupying the array.
      path_ns = common::in_nanoseconds(timing.conventional_total) * 2.0;
      break;
    case PolicyKind::scrub_piggyback:
      // Scrub decodes happen off the return path; latency is conventional.
      path_ns = common::in_nanoseconds(timing.conventional_total);
      break;
  }
  return kControllerCycles +
         static_cast<std::uint32_t>(std::ceil(path_ns / period_ns));
}

namespace {

nvsim::CacheGeometry l2_geometry(const ExperimentConfig& cfg) {
  nvsim::CacheGeometry geom;
  geom.capacity_bytes = cfg.hierarchy.l2.capacity_bytes;
  geom.ways = cfg.hierarchy.l2.ways;
  geom.block_bytes = cfg.hierarchy.l2.block_bytes;
  geom.data_cell = nvsim::CellType::stt_mram;
  return geom;
}

// A MemoryHierarchy's shape: everything its constructor sizes or fixes.
// The L2 hit latency is left out; every experiment sets its own.
bool same_shape(const sim::CacheConfig& a, const sim::CacheConfig& b) {
  return a.name == b.name && a.capacity_bytes == b.capacity_bytes &&
         a.ways == b.ways && a.block_bytes == b.block_bytes &&
         a.replacement == b.replacement;
}

bool same_shape(const sim::HierarchyConfig& a, const sim::HierarchyConfig& b) {
  return same_shape(a.l1i, b.l1i) && same_shape(a.l1d, b.l1d) &&
         same_shape(a.l2, b.l2) && a.mem_cycles == b.mem_cycles;
}

// Binomial models by exact (p_rd, t, line bits). A model is a pure function
// of that key -- its memo only caches values it would compute -- so the
// points of one device point and code share a model and pay its
// lgamma-heavy construction once. The least recently used model leaves
// first, which keeps a device sweep to kCapacity models; a lane holds its
// model by shared pointer, so a pass with more distinct models than that
// keeps every one it uses alive.
class ModelTable {
 public:
  std::shared_ptr<const reliability::UncorrectableModel> get(
      double p_rd, unsigned t, std::uint64_t line_bits) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
          return e.p_rd == p_rd && e.t == t && e.line_bits == line_bits;
        });
    if (it != entries_.end()) {
      std::rotate(it, it + 1, entries_.end());
    } else {
      auto model = std::make_shared<const reliability::UncorrectableModel>(
          p_rd, t, line_bits);
      if (entries_.size() == kCapacity) entries_.erase(entries_.begin());
      entries_.push_back({p_rd, t, line_bits, std::move(model)});
    }
    return entries_.back().model;
  }

 private:
  static constexpr std::size_t kCapacity = 8;
  struct Entry {
    double p_rd;
    unsigned t;
    std::uint64_t line_bits;
    std::shared_ptr<const reliability::UncorrectableModel> model;
  };
  std::vector<Entry> entries_;  // least recently used first
};

// One read-path policy's share of a simulation pass: everything its
// config sets that the shared walk does not -- the line code, the circuit
// model, the binomial model, the failure ledger and the policy context.
// reset() rebuilds the line code only when its shape changes.
struct Lane {
  std::unique_ptr<ecc::Code> line_code;
  std::optional<nvsim::CacheModel> circuit;
  std::shared_ptr<const reliability::UncorrectableModel> model;
  reliability::FailureLedger ledger;
  PolicyContext ctx;
  double p_rd = 0.0;
  std::uint32_t hit_cycles = 0;

  void reset(const ExperimentConfig& cfg, ModelTable& models) {
    const std::uint64_t line_bits = cfg.hierarchy.l2.block_bytes * 8;
    if (!line_code || line_code->data_bits() != line_bits ||
        line_code->correctable_bits() != cfg.ecc_t) {
      circuit.reset();  // refers to the old code
      line_code = make_line_code(line_bits, cfg.ecc_t);
    }
    p_rd = mtj::read_disturb_probability(cfg.mtj);
    circuit.emplace(l2_geometry(cfg), cfg.tech, *line_code, &cfg.mtj);
    model = models.get(p_rd, cfg.ecc_t, line_bits);

    ledger.reset();
    ctx.model = model.get();
    ctx.ledger = &ledger;
    ctx.ways = cfg.hierarchy.l2.ways;
    ctx.write_fail_per_cell = mtj::write_failure_probability(cfg.mtj);
    ctx.codeword_bits = line_code->codeword_bits();
    ctx.check_on_dirty_eviction = cfg.check_on_dirty_eviction;
    ctx.scrub_every = cfg.scrub_every;
    hit_cycles =
        l2_hit_cycles_for(cfg.policy, circuit->timing(), cfg.clock_ghz);
  }
};

// The L2 hooks of a simulation pass: each hook call fans out to every
// lane's policy, over that lane's reliability column (SetAssocCache lanes).
class LaneHooks {
 public:
  explicit LaneHooks(std::vector<AnyPolicyImpl>& policies)
      : policies_(policies.data()), lanes_(policies.size()) {}

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    for (std::size_t l = 0; l < lanes_; ++l)
      policies_[l].visit(
          [&](auto& p) { p.on_read_lookup(set.lane(l), hit_way); });
  }
  void on_write_lookup(sim::CacheSetView set, int hit_way) {
    for (std::size_t l = 0; l < lanes_; ++l)
      policies_[l].visit(
          [&](auto& p) { p.on_write_lookup(set.lane(l), hit_way); });
  }
  void on_fill(sim::CacheSetView set, std::size_t way) {
    for (std::size_t l = 0; l < lanes_; ++l)
      policies_[l].visit([&](auto& p) { p.on_fill(set.lane(l), way); });
  }
  void on_evict(sim::CacheSetView set, std::size_t way, bool dirty) {
    for (std::size_t l = 0; l < lanes_; ++l)
      policies_[l].visit(
          [&](auto& p) { p.on_evict(set.lane(l), way, dirty); });
  }

 private:
  AnyPolicyImpl* policies_;
  std::size_t lanes_;
};

// Everything a simulation pass wires together except the policy objects:
// the shared walk (hierarchy, data-value model, op source, core) plus one
// lane per config. reset() wires the rig for a pass; a rig may be reset
// any number of times, and rebuilds only what the new pass's shape
// changes (line codes, the hierarchy) while resetting the rest in place --
// the cache columns and binomial memos a fresh rig would have to fault in
// cost more than a short experiment simulates.
struct ExperimentRig {
  ModelTable models;
  std::deque<Lane> lanes;  // the first cfgs.size() serve the current pass
  std::optional<sim::MemoryHierarchy> hier;
  std::optional<trace::DataValueModel> values;
  // The op stream: the config's own generator by default, or an external
  // source (e.g. a trace::ReplayTraceSource over a materialized arena) —
  // which must yield the byte-identical sequence the generator would.
  std::optional<trace::WorkloadTraceSource> own_source;
  std::optional<sim::TraceCpu> cpu;

  // `cfgs` pairwise shares_pass (or is one config); the walk is wired from
  // the first, which all of them agree on.
  void reset(std::span<const ExperimentConfig> cfgs,
             trace::TraceSource* external) {
    while (lanes.size() < cfgs.size()) lanes.emplace_back();
    for (std::size_t i = 0; i < cfgs.size(); ++i)
      lanes[i].reset(cfgs[i], models);

    const ExperimentConfig& cfg = cfgs.front();
    if (hier && same_shape(hier->config(), cfg.hierarchy)) {
      hier->reset(cfg.seed, cfgs.size());
    } else {
      cpu.reset();  // refers to the old hierarchy
      hier.emplace(cfg.hierarchy, cfg.seed);
      if (cfgs.size() > 1) hier->reset(cfg.seed, cfgs.size());
    }
    const std::uint64_t line_bits = cfg.hierarchy.l2.block_bytes * 8;
    const std::uint64_t value_seed = cfg.workload.seed ^ 0xABCD;
    if (values)
      values->reseat(cfg.workload.values, line_bits, value_seed);
    else
      values.emplace(cfg.workload.values, line_bits, value_seed);

    if (!external) own_source.emplace(cfg.workload);
    trace::TraceSource& source = external ? *external : *own_source;
    if (cpu)
      cpu->rebind(source, cfg.clock_ghz);
    else
      cpu.emplace(source, *hier, cfg.clock_ghz);

    // The walk's own cycle count follows lane 0; every lane's cycles are
    // rebuilt from the shared stats (lane_cycles).
    hier->set_l2_hit_cycles(lanes[0].hit_cycles);
    hier->set_l2_ones_provider(sim::OnesProvider(*values));
  }

  void reset_accounting(std::size_t n_lanes) {
    hier->reset_stats();
    for (std::size_t i = 0; i < n_lanes; ++i) lanes[i].ledger.reset();
    cpu->reset_counters();
  }

  // A lane's cycle count, rebuilt exactly from the shared walk. The core
  // charges one cycle per instruction plus the L2's demand-read stalls:
  // the policy's hit latency per L2 read hit, the memory latency per L2
  // read miss. Nothing else stalls (L1 hits and write-backs are free), so
  // this is the count a walk at the lane's hit latency would have made.
  std::uint64_t lane_cycles(const Lane& lane) const {
    const sim::CacheStats& l2 = hier->l2().stats();
    return cpu->instructions() +
           l2.read_hits * std::uint64_t{lane.hit_cycles} +
           (l2.read_lookups - l2.read_hits) *
               std::uint64_t{hier->config().mem_cycles};
  }
};

// The rig run_experiments (and every wrapper of it) resets for each pass
// on this thread.
ExperimentRig& thread_rig() {
  thread_local ExperimentRig rig;
  return rig;
}

// Collects one lane's result after the run.
ExperimentResult collect(const ExperimentConfig& cfg, const ExperimentRig& rig,
                         const Lane& lane, std::uint64_t cycles,
                         const EnergyEvents& events) {
  ExperimentResult r;
  r.workload = cfg.workload.name;
  r.policy = cfg.policy;
  r.instructions = rig.cpu->instructions();
  r.cycles = cycles;
  // TraceCpu::ipc() / seconds(), at this lane's cycle count and clock.
  r.ipc = cycles == 0 ? 0.0
                      : static_cast<double>(r.instructions) /
                            static_cast<double>(cycles);
  r.sim_seconds = static_cast<double>(cycles) / (cfg.clock_ghz * 1e9);
  r.l2_hit_cycles = lane.hit_cycles;
  r.hier = rig.hier->stats();
  r.mttf =
      reliability::compute_mttf(lane.ledger.total_failure_prob(), r.sim_seconds);
  r.checks = lane.ledger.checks();
  r.max_concealed = lane.ledger.max_concealed();
  r.concealed = lane.ledger.histogram();
  r.events = events;
  r.energy = compute_energy(r.events, lane.circuit->energies());
  r.p_rd = lane.p_rd;
  return r;
}

void check_config(const ExperimentConfig& cfg) {
  REAP_EXPECTS(cfg.instructions > 0);
  REAP_EXPECTS(!cfg.workload.patterns.empty());
}

}  // namespace

bool shares_pass(const ExperimentConfig& a, const ExperimentConfig& b) {
  return a.hierarchy.l2.replacement !=
             sim::ReplacementKind::least_error_rate &&
         same_shape(a.hierarchy, b.hierarchy) && a.seed == b.seed &&
         a.instructions == b.instructions &&
         a.warmup_instructions == b.warmup_instructions &&
         a.workload == b.workload;
}

// The one engine: a pass over `cfgs` on this thread's rig.
std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentConfig> cfgs, trace::TraceSource* source) {
  REAP_EXPECTS(!cfgs.empty());
  for (const ExperimentConfig& cfg : cfgs) {
    check_config(cfg);
    REAP_EXPECTS(cfgs.size() == 1 || shares_pass(cfgs.front(), cfg));
  }
  ExperimentRig& rig = thread_rig();
  rig.reset(cfgs, source);
  std::vector<AnyPolicyImpl> policies;
  policies.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    policies.emplace_back(cfgs[i].policy, rig.lanes[i].ctx);
  LaneHooks hooks(policies);

  const ExperimentConfig& shared = cfgs.front();
  // Warmup: populate caches, then reset all accounting.
  if (shared.warmup_instructions > 0) {
    rig.cpu->run(shared.warmup_instructions, hooks);
    rig.reset_accounting(cfgs.size());
    for (AnyPolicyImpl& p : policies)
      p.visit([](auto& impl) { impl.reset_events(); });
  }
  rig.cpu->run(shared.instructions, hooks);
  REAP_ASSERT(rig.lane_cycles(rig.lanes[0]) == rig.cpu->cycles());

  std::vector<ExperimentResult> out;
  out.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const EnergyEvents& events = policies[i].visit(
        [](const auto& impl) -> const EnergyEvents& { return impl.events(); });
    out.push_back(collect(cfgs[i], rig, rig.lanes[i],
                          rig.lane_cycles(rig.lanes[i]), events));
  }
  return out;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  return std::move(run_experiments({&cfg, 1}).front());
}

ExperimentResult run_experiment_replay(const ExperimentConfig& cfg,
                                       trace::TraceSource& source) {
  return std::move(run_experiments({&cfg, 1}, &source).front());
}

PolicyComparison compare_policies(const ExperimentConfig& cfg,
                                  PolicyKind base, PolicyKind other) {
  std::array<ExperimentConfig, 2> cfgs{cfg, cfg};
  cfgs[0].policy = base;
  cfgs[1].policy = other;

  PolicyComparison c;
  if (shares_pass(cfgs[0], cfgs[1])) {
    auto results = run_experiments(cfgs);
    c.base = std::move(results[0]);
    c.other = std::move(results[1]);
  } else {
    c.base = run_experiment(cfgs[0]);
    c.other = run_experiment(cfgs[1]);
  }
  c.mttf_gain = reliability::mttf_ratio(c.other.mttf, c.base.mttf);
  const double eb = c.base.energy.dynamic_total_j();
  const double eo = c.other.energy.dynamic_total_j();
  c.energy_ratio = eb > 0.0 ? eo / eb : 1.0;
  c.energy_overhead_pct = (c.energy_ratio - 1.0) * 100.0;
  c.speedup = c.base.ipc > 0.0 ? c.other.ipc / c.base.ipc : 1.0;
  return c;
}

}  // namespace reap::core
