// One simulation pass per trace group: run_experiments walks L1 -> L2 once
// and runs each config's read-path policy on its own reliability lane.
// Every lane must equal the config run alone on a fresh rig
// (run_experiment_virtual, which also takes its cycle count from the core
// instead of rebuilding it), whatever else shares its pass, in whatever
// order, after whatever ran before on the thread.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "expect_identical.hpp"
#include "reap/core/experiment.hpp"
#include "reap/core/read_path.hpp"
#include "reap/mtj/mtj_params.hpp"
#include "reap/mtj/read_disturb.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/cpu.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"

namespace reap::core {
namespace {

using testutil::expect_identical;

// A shortened run on a 128 KB L2, so the window sees plenty of evictions
// (dirty ones included) and the dirty-eviction check has work to do.
ExperimentConfig base_config(sim::ReplacementKind replacement) {
  ExperimentConfig cfg;
  const auto p = trace::spec2006_profile("mcf");
  EXPECT_TRUE(p.has_value());
  cfg.workload = *p;
  cfg.instructions = 30'000;
  cfg.warmup_instructions = 3'000;
  cfg.hierarchy.l2.capacity_bytes = 128 * 1024;
  cfg.hierarchy.l2.replacement = replacement;
  return cfg;
}

// A group mixing every policy at ecc 1 and 2, several scrub periods, the
// dirty-eviction check, other MTJ operating points and another clock.
std::vector<ExperimentConfig> mixed_group(const ExperimentConfig& base) {
  std::vector<ExperimentConfig> group;
  for (const unsigned t : {1u, 2u})
    for (const PolicyKind kind : all_policies()) {
      ExperimentConfig c = base;
      c.policy = kind;
      c.ecc_t = t;
      group.push_back(c);
    }
  for (const std::uint64_t every : {1u, 7u, 64u}) {
    ExperimentConfig c = base;
    c.policy = PolicyKind::scrub_piggyback;
    c.scrub_every = every;
    group.push_back(c);
  }
  for (const PolicyKind kind : {PolicyKind::conventional_parallel,
                                PolicyKind::reap,
                                PolicyKind::disruptive_restore}) {
    ExperimentConfig c = base;
    c.policy = kind;
    c.check_on_dirty_eviction = true;
    group.push_back(c);
  }
  for (const double ratio : {0.5, 0.9}) {
    ExperimentConfig c = base;
    c.policy = PolicyKind::conventional_parallel;
    c.mtj = mtj::with_read_ratio(ratio);
    group.push_back(c);
  }
  ExperimentConfig slow_clock = base;
  slow_clock.policy = PolicyKind::reap;
  slow_clock.clock_ghz = 1.0;
  group.push_back(slow_clock);
  return group;
}

std::string lane_name(const ExperimentConfig& c) {
  return to_string(c.policy) + "/t" + std::to_string(c.ecc_t) + "/sc" +
         std::to_string(c.scrub_every) +
         (c.check_on_dirty_eviction ? "/dirty" : "") + "/p_rd" +
         std::to_string(mtj::read_disturb_probability(c.mtj)) + "/ghz" +
         std::to_string(c.clock_ghz);
}

class GroupPassByReplacement
    : public ::testing::TestWithParam<sim::ReplacementKind> {};

TEST_P(GroupPassByReplacement, EveryLaneMatchesAFreshRigRun) {
  const auto group = mixed_group(base_config(GetParam()));
  const auto results = run_experiments(group);
  ASSERT_EQ(results.size(), group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    SCOPED_TRACE(lane_name(group[i]));
    expect_identical(results[i], run_experiment_virtual(group[i]));
  }
  // The shared walk does see dirty evictions, so the dirty-eviction lanes
  // were exercised.
  EXPECT_GT(results.front().hier.l2.dirty_evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Replacement, GroupPassByReplacement,
                         ::testing::Values(sim::ReplacementKind::lru,
                                           sim::ReplacementKind::fifo,
                                           sim::ReplacementKind::random_repl));

TEST(GroupPass, LaneResultDoesNotDependOnGroupSizeOrOrder) {
  const auto all = mixed_group(base_config(sim::ReplacementKind::lru));
  // Five lanes: one of each policy.
  const std::vector<ExperimentConfig> five(all.begin(), all.begin() + 5);
  std::vector<ExperimentResult> alone;
  for (const auto& c : five) alone.push_back(run_experiment(c));

  const auto forward = run_experiments(five);
  const std::vector<ExperimentConfig> reversed(five.rbegin(), five.rend());
  const auto backward = run_experiments(reversed);
  for (std::size_t i = 0; i < five.size(); ++i) {
    SCOPED_TRACE(lane_name(five[i]));
    expect_identical(forward[i], alone[i]);
    expect_identical(backward[five.size() - 1 - i], alone[i]);
  }

  // Group sizes 1, 5 and 2 interleaved on this thread's rig.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    expect_identical(run_experiments({&five[2], 1}).front(), alone[2]);
    const auto mid = run_experiments(five);
    for (std::size_t i = 0; i < five.size(); ++i)
      expect_identical(mid[i], alone[i]);
    const std::vector<ExperimentConfig> pair{five[4], five[0]};
    const auto two = run_experiments(pair);
    expect_identical(two[0], alone[4]);
    expect_identical(two[1], alone[0]);
  }
}

TEST(GroupPass, ReplayedPassMatchesGeneratedPass) {
  const auto group = mixed_group(base_config(sim::ReplacementKind::lru));
  const ExperimentConfig& c = group.front();
  trace::WorkloadTraceSource gen(c.workload);
  const auto arena = trace::MaterializedTrace::materialize(
      gen, c.warmup_instructions + c.instructions);
  trace::ReplayTraceSource source(arena);
  const auto replayed = run_experiments(group, &source);
  const auto generated = run_experiments(group);
  for (std::size_t i = 0; i < group.size(); ++i) {
    SCOPED_TRACE(lane_name(group[i]));
    expect_identical(replayed[i], generated[i]);
  }
}

TEST(GroupPass, ComparePoliciesMatchesTwoSeparateRuns) {
  for (const auto repl : {sim::ReplacementKind::lru,
                          sim::ReplacementKind::least_error_rate}) {
    const ExperimentConfig cfg = base_config(repl);
    const auto c = compare_policies(cfg, PolicyKind::conventional_parallel,
                                    PolicyKind::reap);
    ExperimentConfig base = cfg, other = cfg;
    base.policy = PolicyKind::conventional_parallel;
    other.policy = PolicyKind::reap;
    expect_identical(c.base, run_experiment_virtual(base));
    expect_identical(c.other, run_experiment_virtual(other));
  }
}

TEST(GroupPass, SharesPassRefusesLeastErrorRate) {
  const ExperimentConfig lru = base_config(sim::ReplacementKind::lru);
  const ExperimentConfig ler =
      base_config(sim::ReplacementKind::least_error_rate);
  EXPECT_TRUE(shares_pass(lru, lru));
  // Its victim choice reads a lane's counters: never shared, not even
  // with an identical config.
  EXPECT_FALSE(shares_pass(ler, ler));
  ExperimentConfig ler_reap = ler;
  ler_reap.policy = PolicyKind::reap;
  EXPECT_FALSE(shares_pass(ler, ler_reap));
  EXPECT_FALSE(shares_pass(lru, ler));
}

TEST(GroupPass, SharesPassSplitsOnWhatTheWalkSees) {
  const ExperimentConfig a = base_config(sim::ReplacementKind::lru);
  const auto differs = [&](auto edit) {
    ExperimentConfig b = a;
    edit(b);
    return !shares_pass(a, b) && !shares_pass(b, a);
  };
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.workload.seed += 1; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.workload.jump_prob *= 2; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.seed += 1; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.instructions += 1; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.warmup_instructions = 0; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.hierarchy.l2.ways = 4; }));
  EXPECT_TRUE(differs([](ExperimentConfig& c) { c.hierarchy.mem_cycles = 9; }));
  // What only a policy sees does not split a pass.
  for (const auto& c : mixed_group(a)) EXPECT_TRUE(shares_pass(a, c));
}

// Architecture invariant: a read-path policy never changes hierarchy
// state. Driving the same trace with each policy observing the L2, and
// with no observer at all, must leave every line's tag, valid and dirty
// bits, LRU and fill stamps and ones count, and every counter, identical.
// (Least-error-rate replacement is the documented exception: its victim
// choice reads the policy's counters.)
TEST(GroupPass, PoliciesNeverChangeHierarchyState) {
  for (const auto repl :
       {sim::ReplacementKind::lru, sim::ReplacementKind::fifo,
        sim::ReplacementKind::random_repl}) {
    const ExperimentConfig cfg = base_config(repl);
    const auto drive = [&](sim::L2PolicyHooks* hooks) {
      sim::MemoryHierarchy hier(cfg.hierarchy, cfg.seed);
      hier.set_l2_hooks(hooks);
      trace::WorkloadTraceSource source(cfg.workload);
      sim::TraceCpu cpu(source, hier);
      cpu.run(cfg.instructions);
      return hier;
    };
    const sim::MemoryHierarchy bare = drive(nullptr);
    const reliability::UncorrectableModel model(1e-8, 1, 512);
    for (const PolicyKind kind : all_policies()) {
      SCOPED_TRACE(to_string(kind));
      reliability::FailureLedger ledger;
      PolicyContext ctx;
      ctx.model = &model;
      ctx.ledger = &ledger;
      ctx.ways = cfg.hierarchy.l2.ways;
      ctx.write_fail_per_cell = 1e-9;
      ctx.check_on_dirty_eviction = true;
      ctx.scrub_every = 3;
      const auto policy = ReadPathPolicy::make(kind, ctx);
      const sim::MemoryHierarchy watched = drive(policy.get());
      EXPECT_GT(ledger.checks(), 0u);

      const sim::HierarchyStats s = watched.stats(), b = bare.stats();
      EXPECT_EQ(s.l2.read_hits, b.l2.read_hits);
      EXPECT_EQ(s.l2.write_hits, b.l2.write_hits);
      EXPECT_EQ(s.l2.evictions, b.l2.evictions);
      EXPECT_EQ(s.l2.dirty_evictions, b.l2.dirty_evictions);
      EXPECT_EQ(s.mem_reads, b.mem_reads);
      EXPECT_EQ(s.mem_writes, b.mem_writes);
      const sim::SetAssocCache& l2 = watched.l2();
      const std::size_t sets = l2.config().sets();
      for (std::size_t set = 0; set < sets; ++set)
        for (std::size_t way = 0; way < l2.config().ways; ++way) {
          const auto x = l2.line_info(set, way);
          const auto y = bare.l2().line_info(set, way);
          ASSERT_EQ(x.valid, y.valid) << set << "/" << way;
          ASSERT_EQ(x.dirty, y.dirty) << set << "/" << way;
          ASSERT_EQ(x.tag, y.tag) << set << "/" << way;
          ASSERT_EQ(x.ones, y.ones) << set << "/" << way;
          ASSERT_EQ(x.lru_stamp, y.lru_stamp) << set << "/" << way;
          ASSERT_EQ(x.fill_stamp, y.fill_stamp) << set << "/" << way;
        }
    }
  }
}

}  // namespace
}  // namespace reap::core
