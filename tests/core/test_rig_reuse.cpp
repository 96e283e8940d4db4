// Rig reuse: run_experiment and run_experiment_replay reset one per-thread
// experiment rig for every config instead of building a new one
// (core/experiment.cpp). A result must depend on its config alone, never
// on what ran before it on the same thread (architecture invariant 2).
// These tests interleave configs that change each part the reset rebuilds
// or keeps, and compare every result with the config run on a new thread,
// whose rig is freshly built (testutil::run_on_fresh_rig).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "expect_identical.hpp"
#include "reap/campaign/runner.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/core/experiment.hpp"
#include "reap/mtj/mtj_params.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"

namespace reap::core {
namespace {

using testutil::expect_identical;
using testutil::run_on_fresh_rig;

ExperimentConfig config_a() {
  ExperimentConfig cfg;
  const auto p = trace::spec2006_profile("h264ref");
  EXPECT_TRUE(p.has_value());
  cfg.workload = *p;
  cfg.instructions = 40'000;
  cfg.warmup_instructions = 5'000;
  return cfg;
}

// Configs that each differ from `a` in one thing the rig keeps between
// runs. Run back to back, the two random-replacement entries share a
// hierarchy shape, so the second takes the in-place reset with a new seed.
std::vector<std::pair<std::string, ExperimentConfig>> variants(
    const ExperimentConfig& a) {
  std::vector<std::pair<std::string, ExperimentConfig>> out;
  const auto add = [&](std::string name, auto edit) {
    ExperimentConfig c = a;
    edit(c);
    out.emplace_back(std::move(name), std::move(c));
  };
  add("workload seed", [](ExperimentConfig& c) { c.workload.seed += 1; });
  add("ecc_t", [](ExperimentConfig& c) { c.ecc_t = 2; });
  add("l2 ways", [](ExperimentConfig& c) { c.hierarchy.l2.ways = 4; });
  add("random replacement", [](ExperimentConfig& c) {
    c.hierarchy.l2.replacement = sim::ReplacementKind::random_repl;
  });
  add("random replacement, other seed", [](ExperimentConfig& c) {
    c.hierarchy.l2.replacement = sim::ReplacementKind::random_repl;
    c.seed += 1;
  });
  add("least-error-rate replacement", [](ExperimentConfig& c) {
    c.hierarchy.l2.replacement = sim::ReplacementKind::least_error_rate;
  });
  add("mtj p_rd",
      [](ExperimentConfig& c) { c.mtj = mtj::with_read_ratio(0.75); });
  add("dirty-eviction check",
      [](ExperimentConfig& c) { c.check_on_dirty_eviction = true; });
  add("policy", [](ExperimentConfig& c) {
    c.policy = PolicyKind::scrub_piggyback;
    c.scrub_every = 4;
  });
  return out;
}

TEST(RigReuse, ResultsDoNotDependOnEarlierRunsOnTheThread) {
  const ExperimentConfig a = config_a();
  const ExperimentResult reference = run_on_fresh_rig(a);
  expect_identical(run_experiment(a), reference);
  for (const auto& [name, v] : variants(a)) {
    SCOPED_TRACE(name);
    expect_identical(run_experiment(v), run_on_fresh_rig(v));
    expect_identical(run_experiment(a), reference);
  }
}

TEST(RigReuse, BackToBackVariantsMatchFreshRigs) {
  for (const auto& [name, v] : variants(config_a())) {
    SCOPED_TRACE(name);
    expect_identical(run_experiment(v), run_on_fresh_rig(v));
  }
}

TEST(RigReuse, ReplayRunLeavesNothingBehind) {
  const ExperimentConfig a = config_a();
  const ExperimentResult reference = run_on_fresh_rig(a);
  ExperimentConfig other = a;
  other.workload.seed += 1;
  trace::WorkloadTraceSource gen(other.workload);
  const auto arena = trace::MaterializedTrace::materialize(
      gen, other.warmup_instructions + other.instructions);
  trace::ReplayTraceSource source(arena);
  expect_identical(run_experiment_replay(other, source),
                   run_on_fresh_rig(other));
  expect_identical(run_experiment(a), reference);
}

TEST(RigReuse, FourThreadCampaignOverMixedGeometriesMatchesOneThread) {
  campaign::CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = {PolicyKind::conventional_parallel, PolicyKind::reap};
  spec.ecc_ts = {1, 2};
  spec.seeds = {0, 1};
  spec.base.instructions = 20'000;
  spec.base.warmup_instructions = 2'000;
  auto points = campaign::expand(spec);
  ASSERT_EQ(points.size(), 16u);
  // Each runner thread's share spans all four shapes, so every thread
  // resets its rig across geometry and replacement changes.
  for (auto& pt : points) {
    sim::HierarchyConfig& h = pt.config.hierarchy;
    switch (pt.index % 4) {
      case 1:
        h.l2.ways = 4;
        break;
      case 2:
        h.l2.replacement = sim::ReplacementKind::random_repl;
        break;
      case 3:
        h.l2.capacity_bytes = 512 * 1024;
        h.l1d.ways = 2;
        break;
      default:
        break;
    }
  }
  campaign::RunnerOptions serial_opts;
  serial_opts.threads = 1;
  campaign::RunnerOptions parallel_opts;
  parallel_opts.threads = 4;
  const auto serial = campaign::CampaignRunner(serial_opts).run(points);
  const auto parallel = campaign::CampaignRunner(parallel_opts).run(points);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].key);
    expect_identical(parallel[i], serial[i]);
    expect_identical(serial[i], run_on_fresh_rig(points[i].config));
  }
}

}  // namespace
}  // namespace reap::core
