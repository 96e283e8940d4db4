// Experiment runner: one workload x one read-path policy -> reliability,
// energy, performance. This is the facade the benches and examples drive;
// it wires together every substrate exactly the way the paper's evaluation
// does (Sec. V): synthetic workload -> 2-level hierarchy -> policy hooks ->
// failure ledger -> MTTF, with nvsim supplying energies/latencies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "reap/common/histogram.hpp"
#include "reap/core/energy.hpp"
#include "reap/core/read_path.hpp"
#include "reap/mtj/mtj_params.hpp"
#include "reap/nvsim/cache_model.hpp"
#include "reap/reliability/mttf.hpp"
#include "reap/sim/cpu.hpp"
#include "reap/sim/hierarchy.hpp"
#include "reap/trace/workload.hpp"

namespace reap::core {

struct ExperimentConfig {
  trace::WorkloadProfile workload;
  PolicyKind policy = PolicyKind::conventional_parallel;

  sim::HierarchyConfig hierarchy;  // defaults = paper Table I
  mtj::MtjParams mtj = mtj::paper_default();
  nvsim::TechNode tech = nvsim::tech_32nm();
  unsigned ecc_t = 1;  // line-code correction capability (1 = SEC-DED)

  std::uint64_t instructions = 5'000'000;
  std::uint64_t warmup_instructions = 500'000;
  double clock_ghz = 2.0;
  std::uint64_t seed = 42;

  bool check_on_dirty_eviction = false;  // extension, off = paper-faithful
  std::uint64_t scrub_every = 64;        // scrub_piggyback policy period
};

struct ExperimentResult {
  std::string workload;
  PolicyKind policy = PolicyKind::conventional_parallel;

  // Performance.
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;
  double sim_seconds = 0.0;
  std::uint32_t l2_hit_cycles = 0;

  // Hierarchy behaviour.
  sim::HierarchyStats hier;

  // Reliability.
  reliability::MttfResult mttf;
  std::uint64_t checks = 0;
  std::uint64_t max_concealed = 0;
  common::LogHistogram concealed;  // Fig. 3 source data

  // Energy.
  EnergyEvents events;
  EnergyBreakdown energy;

  double p_rd = 0.0;  // device operating point used
};

// True when `a` and `b` can be simulated by one pass: they agree on
// everything the walk depends on -- the workload (so the op stream), the
// hierarchy's shape and seed, the instruction and warmup counts -- and
// differ at most in what only a read-path policy sees (policy, ecc_t, MTJ
// and technology point, clock, dirty-eviction check, scrub period).
// Least-error-rate replacement never shares: its victim choice reads a
// policy's accumulation counters, so each of its configs walks alone
// (shares_pass(a, a) is false for such a config).
bool shares_pass(const ExperimentConfig& a, const ExperimentConfig& b);

// Runs a group of experiments as one simulation pass, the engine every
// entry point below wraps. `cfgs` is a single config or configs that
// pairwise shares_pass. One op stream and one L1 -> L2 walk serve them
// all; each config's read-path policy runs on its own reliability lane of
// the L2 (SetAssocCache lanes) with its own line code, models, ledger and
// energy events, and its cycle count is rebuilt exactly from the shared
// walk's stats at its own L2 hit latency. Every result is byte-identical
// to running that config alone, and every lane matches the independent
// reference model in tests/core/reference_model.hpp (pinned by
// tests/core/test_group_pass.cpp and tests/core/test_reference_model.cpp).
//
// Ops come from `source` when given -- it must yield the byte-identical
// sequence the configs' generator would (e.g. a trace::ReplayTraceSource
// over an arena materialized from it) -- and from a fresh
// WorkloadTraceSource otherwise.
//
// Dispatch is static per lane: the simulator inner loop (trace batch ->
// L1 -> L2 -> lanes) inlines every policy impl and switches between them
// per hook call (AnyPolicyImpl), with no virtual calls. The drive loop
// (TraceCpu::run) pre-decodes each batch's addresses, prefetches upcoming
// set columns, and scans sets with SIMD kernels where the build enables
// them (REAP_SIMD).
//
// The experiment rig (caches, memos, models) is kept per thread and reset
// for each pass instead of allocated; a result depends on its config
// alone, never on what ran before on the thread or on the other configs
// of its pass (pinned by tests/core/test_rig_reuse.cpp and
// tests/core/test_group_pass.cpp).
std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentConfig> cfgs,
    trace::TraceSource* source = nullptr);

// A pass of one.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

// A pass of one over `source` (see run_experiments). The campaign trace
// cache hangs off this: one materialized trace serves every pass of a
// trace key.
ExperimentResult run_experiment_replay(const ExperimentConfig& cfg,
                                       trace::TraceSource& source);

// Runs `base` and `other` on the same workload/seed -- as one pass unless
// the config uses least-error-rate replacement -- and reports the
// headline comparisons the paper's figures plot.
struct PolicyComparison {
  ExperimentResult base;
  ExperimentResult other;
  double mttf_gain = 0.0;            // MTTF_other / MTTF_base  (Fig. 5)
  double energy_ratio = 0.0;         // E_other / E_base        (Fig. 6)
  double energy_overhead_pct = 0.0;  // (ratio - 1) * 100
  double speedup = 0.0;              // IPC_other / IPC_base
};

PolicyComparison compare_policies(const ExperimentConfig& cfg,
                                  PolicyKind base, PolicyKind other);

// The ECC line code the configuration implies (SEC-DED for t=1, BCH above);
// shared by benches that need codec-level costs.
std::unique_ptr<ecc::Code> make_line_code(std::size_t data_bits, unsigned t);

// Policy-dependent L2 hit latency in cycles, derived from the nvsim read
// path (Sec. V-B: REAP <= conventional; serial pays the full sum).
std::uint32_t l2_hit_cycles_for(PolicyKind kind,
                                const nvsim::ReadPathTiming& timing,
                                double clock_ghz);

}  // namespace reap::core
