// Golden cases for the statically dispatched engine on SPEC-like profiles
// and the Table I hierarchy: run_experiment (batched trace pulls, policy
// inlined into the cache access path, vectorized drive loop) must match
// the independent reference model (reference_model.hpp: naive caches, one
// op at a time, unmemoized binomial tails) for every PolicyKind. Any
// divergence means a change moved an observable result. The suite runs
// unchanged under REAP_SIMD=OFF (the CI scalar-fallback leg), so both
// kernel flavours are pinned to the same reference.
#include <gtest/gtest.h>

#include "expect_identical.hpp"
#include "reap/core/experiment.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"

namespace reap::core {
namespace {

ExperimentConfig small_cfg(const std::string& workload, PolicyKind policy) {
  ExperimentConfig cfg;
  const auto p = trace::spec2006_profile(workload);
  EXPECT_TRUE(p.has_value());
  cfg.workload = *p;
  cfg.policy = policy;
  cfg.instructions = 120'000;
  cfg.warmup_instructions = 20'000;
  return cfg;
}

using testutil::expect_identical;
using testutil::expect_matches_reference;

TEST(StaticDispatch, MatchesReferenceModelForEveryPolicy) {
  for (const PolicyKind kind : all_policies()) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("perlbench", kind);
    expect_matches_reference(run_experiment(cfg), cfg);
  }
}

TEST(StaticDispatch, IdenticalOnHotSetWorkload) {
  // h264ref drives the deep concealed-read tails (large-N ledger entries),
  // exercising the accumulation bookkeeping the reference restates.
  for (const PolicyKind kind :
       {PolicyKind::conventional_parallel, PolicyKind::reap}) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("h264ref", kind);
    expect_matches_reference(run_experiment(cfg), cfg);
  }
}

TEST(StaticDispatch, IdenticalWithExtensionsEnabled) {
  auto cfg = small_cfg("gcc", PolicyKind::scrub_piggyback);
  cfg.scrub_every = 16;
  cfg.check_on_dirty_eviction = true;
  expect_matches_reference(run_experiment(cfg), cfg);
}

TEST(StaticDispatch, IdenticalWithoutWarmup) {
  // No warmup means the batched loop's buffered-ops boundary handling is
  // exercised from a cold start.
  auto cfg = small_cfg("mcf", PolicyKind::reap);
  cfg.warmup_instructions = 0;
  expect_matches_reference(run_experiment(cfg), cfg);
}

// Replay equivalence: feeding the engine from a materialized arena
// (run_experiment_replay) must be byte-identical to generating the trace
// inline — for every policy, since the campaign trace cache replays one
// arena across the whole policy axis.
TEST(StaticDispatch, ReplayIdenticalToGenerationForEveryPolicy) {
  for (const PolicyKind kind : all_policies()) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("perlbench", kind);
    trace::WorkloadTraceSource gen(cfg.workload);
    const auto trace = trace::MaterializedTrace::materialize(
        gen, cfg.warmup_instructions + cfg.instructions);
    trace::ReplayTraceSource source(trace);
    expect_identical(run_experiment_replay(cfg, source),
                     run_experiment(cfg));
  }
}

TEST(StaticDispatch, ReplayIdenticalWithoutWarmup) {
  auto cfg = small_cfg("h264ref", PolicyKind::reap);
  cfg.warmup_instructions = 0;
  trace::WorkloadTraceSource gen(cfg.workload);
  const auto trace =
      trace::MaterializedTrace::materialize(gen, cfg.instructions);
  trace::ReplayTraceSource source(trace);
  expect_identical(run_experiment_replay(cfg, source), run_experiment(cfg));
}

TEST(StaticDispatch, OneArenaServesManySequentialReplays) {
  // The sharing pattern the campaign cache relies on: one arena, several
  // consumers, each with its own cursor, every run byte-identical.
  const auto cfg = small_cfg("gcc", PolicyKind::conventional_parallel);
  trace::WorkloadTraceSource gen(cfg.workload);
  const auto trace = trace::MaterializedTrace::materialize(
      gen, cfg.warmup_instructions + cfg.instructions);
  const auto reference = run_experiment(cfg);
  for (int i = 0; i < 3; ++i) {
    trace::ReplayTraceSource source(trace);
    expect_identical(run_experiment_replay(cfg, source), reference);
  }
}

}  // namespace
}  // namespace reap::core
