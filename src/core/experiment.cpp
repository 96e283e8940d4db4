#include "reap/core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "reap/common/assert.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/core/read_path.hpp"
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
// first, which keeps a device sweep to kCapacity models.
class ModelTable {
 public:
  const reliability::UncorrectableModel& get(double p_rd, unsigned t,
                                             std::uint64_t line_bits) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
          return e.p_rd == p_rd && e.t == t && e.line_bits == line_bits;
        });
    if (it != entries_.end()) {
      std::rotate(it, it + 1, entries_.end());
    } else {
      auto model = std::make_unique<reliability::UncorrectableModel>(
          p_rd, t, line_bits);
      if (entries_.size() == kCapacity) entries_.erase(entries_.begin());
      entries_.push_back({p_rd, t, line_bits, std::move(model)});
    }
    return *entries_.back().model;
  }

 private:
  static constexpr std::size_t kCapacity = 8;
  struct Entry {
    double p_rd;
    unsigned t;
    std::uint64_t line_bits;
    std::unique_ptr<reliability::UncorrectableModel> model;
  };
  std::vector<Entry> entries_;  // least recently used first
};

// Everything an experiment wires together except the policy object, shared
// by the static- and virtual-dispatch drivers so the two runs differ only
// in how the policy is invoked. reset() wires the rig for a config; a rig
// may be reset any number of times, and rebuilds only what the new
// config's shape changes (the line code, the hierarchy) while resetting
// the rest in place -- the ~1.5 MB of cache columns and memos a fresh rig
// would have to fault in cost more than a short experiment simulates.
struct ExperimentRig {
  std::unique_ptr<ecc::Code> line_code;
  double p_rd = 0.0;
  double p_wf = 0.0;
  std::optional<nvsim::CacheModel> circuit;
  ModelTable models;
  reliability::FailureLedger ledger;
  PolicyContext ctx;
  std::optional<sim::MemoryHierarchy> hier;
  std::optional<trace::DataValueModel> values;
  // The op stream: the config's own generator by default, or an external
  // source (e.g. a trace::ReplayTraceSource over a materialized arena) —
  // which must yield the byte-identical sequence the generator would.
  std::optional<trace::WorkloadTraceSource> own_source;
  std::optional<sim::TraceCpu> cpu;
  std::uint32_t hit_cycles = 0;

  void reset(const ExperimentConfig& cfg,
             trace::TraceSource* external = nullptr) {
    const std::uint64_t line_bits = cfg.hierarchy.l2.block_bytes * 8;
    if (!line_code || line_code->data_bits() != line_bits ||
        line_code->correctable_bits() != cfg.ecc_t) {
      circuit.reset();  // refers to the old code
      line_code = make_line_code(line_bits, cfg.ecc_t);
    }
    p_rd = mtj::read_disturb_probability(cfg.mtj);
    p_wf = mtj::write_failure_probability(cfg.mtj);
    circuit.emplace(l2_geometry(cfg), cfg.tech, *line_code, &cfg.mtj);

    ledger.reset();
    ctx.model = &models.get(p_rd, cfg.ecc_t, line_bits);
    ctx.ledger = &ledger;
    ctx.ways = cfg.hierarchy.l2.ways;
    ctx.write_fail_per_cell = p_wf;
    ctx.codeword_bits = line_code->codeword_bits();
    ctx.check_on_dirty_eviction = cfg.check_on_dirty_eviction;
    ctx.scrub_every = cfg.scrub_every;

    if (hier && same_shape(hier->config(), cfg.hierarchy)) {
      hier->reset(cfg.seed);
    } else {
      cpu.reset();  // refers to the old hierarchy
      hier.emplace(cfg.hierarchy, cfg.seed);
    }
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

    hit_cycles =
        l2_hit_cycles_for(cfg.policy, circuit->timing(), cfg.clock_ghz);
    hier->set_l2_hit_cycles(hit_cycles);
    hier->set_l2_ones_provider(sim::OnesProvider(*values));
  }

  void reset_accounting() {
    hier->reset_stats();
    ledger.reset();
    cpu->reset_counters();
  }
};

// The rig run_experiment, run_experiment_basic and run_experiment_replay
// reset for each config on this thread.
ExperimentRig& thread_rig() {
  thread_local ExperimentRig rig;
  return rig;
}

// Collects the result after the run; `policy` only needs events().
template <class Policy>
ExperimentResult collect(const ExperimentConfig& cfg, const ExperimentRig& rig,
                         const Policy& policy) {
  ExperimentResult r;
  r.workload = cfg.workload.name;
  r.policy = cfg.policy;
  r.instructions = rig.cpu->instructions();
  r.cycles = rig.cpu->cycles();
  r.ipc = rig.cpu->ipc();
  r.sim_seconds = rig.cpu->seconds();
  r.l2_hit_cycles = rig.hit_cycles;
  r.hier = rig.hier->stats();
  r.mttf = reliability::compute_mttf(rig.ledger.total_failure_prob(),
                                     rig.cpu->seconds());
  r.checks = rig.ledger.checks();
  r.max_concealed = rig.ledger.max_concealed();
  r.concealed = rig.ledger.histogram();
  r.events = policy.events();
  r.energy = compute_energy(r.events, rig.circuit->energies());
  r.p_rd = rig.p_rd;
  return r;
}

void check_config(const ExperimentConfig& cfg) {
  REAP_EXPECTS(cfg.instructions > 0);
  REAP_EXPECTS(!cfg.workload.patterns.empty());
}

}  // namespace

namespace {

// `vectorized` picks the drive loop: TraceCpu::run_vectorized (batch
// pre-decode + prefetch + pre-decoded L2 lookups) or the plain batched
// run. Both produce byte-identical results; the branch is per run, not
// per op.
ExperimentResult run_static(const ExperimentConfig& cfg, ExperimentRig& rig,
                            bool vectorized = true) {
  return with_policy_impl(cfg.policy, rig.ctx, [&](auto& policy) {
    // Warmup: populate caches, then reset all accounting.
    if (cfg.warmup_instructions > 0) {
      if (vectorized)
        rig.cpu->run_vectorized(cfg.warmup_instructions, policy);
      else
        rig.cpu->run(cfg.warmup_instructions, policy);
      rig.reset_accounting();
      policy.reset_events();
    }
    if (vectorized)
      rig.cpu->run_vectorized(cfg.instructions, policy);
    else
      rig.cpu->run(cfg.instructions, policy);
    return collect(cfg, rig, policy);
  });
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  check_config(cfg);
  ExperimentRig& rig = thread_rig();
  rig.reset(cfg);
  return run_static(cfg, rig);
}

ExperimentResult run_experiment_basic(const ExperimentConfig& cfg) {
  check_config(cfg);
  ExperimentRig& rig = thread_rig();
  rig.reset(cfg);
  return run_static(cfg, rig, /*vectorized=*/false);
}

ExperimentResult run_experiment_replay(const ExperimentConfig& cfg,
                                       trace::TraceSource& source) {
  check_config(cfg);
  ExperimentRig& rig = thread_rig();
  rig.reset(cfg, &source);
  return run_static(cfg, rig);
}

ExperimentResult run_experiment_virtual(const ExperimentConfig& cfg) {
  check_config(cfg);
  ExperimentRig rig;  // always fresh: the reference reused rigs must match
  rig.reset(cfg);
  const auto policy = ReadPathPolicy::make(cfg.policy, rig.ctx);
  rig.hier->set_l2_hooks(policy.get());
  if (cfg.warmup_instructions > 0) {
    rig.cpu->run(cfg.warmup_instructions);
    rig.reset_accounting();
    policy->reset_events();
  }
  rig.cpu->run(cfg.instructions);
  return collect(cfg, rig, *policy);
}

PolicyComparison compare_policies(const ExperimentConfig& cfg,
                                  PolicyKind base, PolicyKind other) {
  ExperimentConfig base_cfg = cfg;
  base_cfg.policy = base;
  ExperimentConfig other_cfg = cfg;
  other_cfg.policy = other;

  PolicyComparison c;
  c.base = run_experiment(base_cfg);
  c.other = run_experiment(other_cfg);
  c.mttf_gain = reliability::mttf_ratio(c.other.mttf, c.base.mttf);
  const double eb = c.base.energy.dynamic_total_j();
  const double eo = c.other.energy.dynamic_total_j();
  c.energy_ratio = eb > 0.0 ? eo / eb : 1.0;
  c.energy_overhead_pct = (c.energy_ratio - 1.0) * 100.0;
  c.speedup = c.base.ipc > 0.0 ? c.other.ipc / c.base.ipc : 1.0;
  return c;
}

}  // namespace reap::core
