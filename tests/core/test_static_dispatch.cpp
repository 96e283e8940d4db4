// Golden-equivalence test for the devirtualized engine: the static-dispatch
// path (run_experiment: batched trace pulls, policy inlined into the cache
// access path, vectorized drive loop) must produce results byte-identical
// to the runtime-dispatch reference path (run_experiment_virtual: per-op
// virtual TraceSource::next, virtual L2PolicyHooks) for every PolicyKind --
// and to run_experiment_basic, the same engine on the plain batched loop
// with no pre-decode/prefetch/SIMD. Any divergence means a refactor changed
// an observable result, not just its speed. The suite runs unchanged under
// REAP_SIMD=OFF (the CI scalar-fallback leg), so the chain virtual == basic
// == vectorized is pinned on both kernel flavours.
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

TEST(StaticDispatch, IdenticalToVirtualPathForEveryPolicy) {
  for (const PolicyKind kind : all_policies()) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("perlbench", kind);
    expect_identical(run_experiment(cfg), run_experiment_virtual(cfg));
  }
}

TEST(StaticDispatch, IdenticalOnHotSetWorkload) {
  // h264ref drives the deep concealed-read tails (large-N ledger entries),
  // exercising the accumulation bookkeeping both paths must agree on.
  for (const PolicyKind kind :
       {PolicyKind::conventional_parallel, PolicyKind::reap}) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("h264ref", kind);
    expect_identical(run_experiment(cfg), run_experiment_virtual(cfg));
  }
}

TEST(StaticDispatch, IdenticalWithExtensionsEnabled) {
  auto cfg = small_cfg("gcc", PolicyKind::scrub_piggyback);
  cfg.scrub_every = 16;
  cfg.check_on_dirty_eviction = true;
  expect_identical(run_experiment(cfg), run_experiment_virtual(cfg));
}

TEST(StaticDispatch, IdenticalWithoutWarmup) {
  // No warmup means the batched path's buffered-ops boundary handling is
  // exercised from a cold start.
  auto cfg = small_cfg("mcf", PolicyKind::reap);
  cfg.warmup_instructions = 0;
  expect_identical(run_experiment(cfg), run_experiment_virtual(cfg));
}

// Vectorization equivalence: the vectorized drive loop (batch pre-decode,
// prefetch, SIMD set scans where built) must be byte-identical to the
// plain batched loop for every policy. This is the gate the perf work
// stands behind: run_experiment may only be faster than
// run_experiment_basic, never different.
TEST(StaticDispatch, VectorizedIdenticalToBasicForEveryPolicy) {
  for (const PolicyKind kind : all_policies()) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("perlbench", kind);
    expect_identical(run_experiment(cfg), run_experiment_basic(cfg));
  }
}

TEST(StaticDispatch, VectorizedIdenticalToBasicOnHotSetWorkload) {
  // h264ref's hot sets maximize accumulate_valid traffic, the loop the
  // vector kernel replaced.
  for (const PolicyKind kind :
       {PolicyKind::conventional_parallel, PolicyKind::reap}) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("h264ref", kind);
    expect_identical(run_experiment(cfg), run_experiment_basic(cfg));
  }
}

TEST(StaticDispatch, VectorizedIdenticalToBasicWithoutWarmup) {
  auto cfg = small_cfg("mcf", PolicyKind::disruptive_restore);
  cfg.warmup_instructions = 0;
  expect_identical(run_experiment(cfg), run_experiment_basic(cfg));
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
