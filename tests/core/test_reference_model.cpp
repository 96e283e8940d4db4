// Differential suite: the engine (core::run_experiments) against the
// naive reference model (reference_model.hpp), which shares none of its
// cache, hierarchy, policy or ledger code.
//
// The grid: all five policies, scrub_every 1, 3 and 64, the dirty-eviction
// check on and off, 1-3 lanes per pass (ecc_t 1 and 2 mixed), lru, fifo
// and random replacement (least-error-rate alone, one lane), a small L2
// and the Table I L2, warmup 0 and > 0, and a random and a set-hammer
// profile. Every lane must match exactly on instructions, cycles, every
// hierarchy counter, checks, the concealed histogram's bins and counts,
// max_concealed and the energy events, and within kLedgerRelTol on the
// ledger sums. The end state -- every line's valid and dirty bits and tag
// in all three caches, and every L2 line's ones count and unchecked reads
// in every lane -- is compared too, from MemoryHierarchy driven directly
// with the real policy impls, one per lane, as in test_lazy_ones.cpp.
#include <gtest/gtest.h>

#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "expect_identical.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/cpu.hpp"
#include "reference_model.hpp"

namespace reap::core {
namespace {

using testref::ReferenceModel;
using testutil::expect_matches_reference;

enum class Profile { random, hammer };

struct Env {
  const char* name;
  bool table_one;  // the Table I L2, else a 64 KB one under 4 KB L1s
  sim::ReplacementKind replacement;
  Profile profile;
  std::uint64_t warmup;
};

// Names the grid point in test listings.
void PrintTo(const Env& env, std::ostream* os) { *os << env.name; }

struct LaneSpec {
  PolicyKind kind;
  std::uint64_t scrub_every = 64;
  bool dirty_check = false;
  unsigned t = 1;
};

sim::HierarchyConfig hierarchy(const Env& env) {
  sim::HierarchyConfig h;
  if (!env.table_one) {
    h.l1i.capacity_bytes = h.l1d.capacity_bytes = 4 * 1024;
    h.l1i.ways = h.l1d.ways = 2;
    h.l2.capacity_bytes = 64 * 1024;
  }
  h.l2.replacement = env.replacement;
  return h;
}

// Random: uniform loads and stores over twice the L2. Set hammer: a sweep
// that fits its L2 set (with two rarely touched residents accumulating
// concealed reads) and one that overflows another set, over random
// traffic.
trace::WorkloadProfile profile(const Env& env, const sim::CacheConfig& l2) {
  trace::WorkloadProfile p;
  p.name = env.profile == Profile::hammer ? "hammer" : "random";
  p.loads_per_inst = 0.3;
  p.stores_per_inst = 0.15;
  p.code_bytes = 16 * 1024;
  p.jump_prob = 0.05;
  p.seed = 0x0AC1E;
  trace::PatternSpec uniform;
  uniform.kind = trace::PatternSpec::Kind::uniform;
  uniform.region_bytes = 2 * l2.capacity_bytes;
  p.patterns.push_back(uniform);
  if (env.profile == Profile::hammer) {
    trace::PatternSpec hammer;
    hammer.kind = trace::PatternSpec::Kind::hammer;
    hammer.weight = 3.0;
    hammer.hammer_set_period = l2.sets() * l2.block_bytes;
    hammer.hammer_resident_prob = 0.01;
    p.patterns.push_back(hammer);
    hammer.weight = 1.0;
    hammer.hammer_blocks = l2.ways + 3;
    hammer.hammer_resident_blocks = 0;
    p.patterns.push_back(hammer);
  }
  return p;
}

std::vector<ExperimentConfig> pass(const Env& env,
                                   const std::vector<LaneSpec>& lanes) {
  ExperimentConfig base;
  base.hierarchy = hierarchy(env);
  base.workload = profile(env, base.hierarchy.l2);
  base.instructions = env.table_one ? 30'000 : 20'000;
  base.warmup_instructions = env.warmup;
  base.seed = 7;
  std::vector<ExperimentConfig> cfgs;
  for (const LaneSpec& l : lanes) {
    ExperimentConfig c = base;
    c.policy = l.kind;
    c.scrub_every = l.scrub_every;
    c.check_on_dirty_eviction = l.dirty_check;
    c.ecc_t = l.t;
    cfgs.push_back(c);
  }
  return cfgs;
}

std::string describe(const std::vector<LaneSpec>& lanes) {
  std::string s;
  for (const LaneSpec& l : lanes)
    s += to_string(l.kind) + "/sc" + std::to_string(l.scrub_every) + "/t" +
         std::to_string(l.t) + (l.dirty_check ? "/dc " : " ");
  return s;
}

// Static L2 hooks fanning every call out to one policy impl per lane.
struct FanOut {
  std::vector<AnyPolicyImpl>& policies;

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    for (std::size_t l = 0; l < policies.size(); ++l)
      policies[l].visit(
          [&](auto& p) { p.on_read_lookup(set.lane(l), hit_way); });
  }
  void on_write_lookup(sim::CacheSetView set, int hit_way) {
    for (std::size_t l = 0; l < policies.size(); ++l)
      policies[l].visit(
          [&](auto& p) { p.on_write_lookup(set.lane(l), hit_way); });
  }
  void on_fill(sim::CacheSetView set, std::size_t way) {
    for (std::size_t l = 0; l < policies.size(); ++l)
      policies[l].visit([&](auto& p) { p.on_fill(set.lane(l), way); });
  }
  void on_evict(sim::CacheSetView set, std::size_t way, bool dirty) {
    for (std::size_t l = 0; l < policies.size(); ++l)
      policies[l].visit(
          [&](auto& p) { p.on_evict(set.lane(l), way, dirty); });
  }
};

void expect_same_lines(sim::SetAssocCache& engine,
                       const testref::RefCache& ref, const char* which) {
  ASSERT_EQ(engine.config().sets(), ref.sets()) << which;
  for (std::size_t s = 0; s < ref.sets(); ++s)
    for (std::size_t w = 0; w < engine.config().ways; ++w) {
      const auto got = engine.line_info(s, w);
      const testref::RefLine& want = ref.line(s, w);
      ASSERT_EQ(got.valid, want.valid) << which << " " << s << "/" << w;
      if (!want.valid) continue;
      ASSERT_EQ(got.dirty, want.dirty) << which << " " << s << "/" << w;
      ASSERT_EQ(got.tag, ref.tag_of(want)) << which << " " << s << "/" << w;
    }
}

// Drives MemoryHierarchy with one policy impl per lane over the pass's op
// stream (warmup, then the window) and compares every line with the
// reference model's after its run.
void expect_same_end_state(const std::vector<ExperimentConfig>& cfgs,
                           const ReferenceModel& ref) {
  const ExperimentConfig& c = cfgs.front();
  const std::uint64_t line_bits = c.hierarchy.l2.block_bytes * 8;
  sim::MemoryHierarchy hier(c.hierarchy, c.seed);
  hier.reset(c.seed, cfgs.size());
  const trace::DataValueModel values(c.workload.values, line_bits,
                                     c.workload.seed ^ 0xABCD);
  hier.set_l2_ones_provider(sim::OnesProvider(values));
  std::deque<reliability::UncorrectableModel> models;
  std::deque<reliability::FailureLedger> ledgers;
  std::vector<AnyPolicyImpl> policies;
  for (const ExperimentConfig& cfg : cfgs) {
    const testref::RefLane lane = testref::lane_for(cfg);
    PolicyContext ctx;
    ctx.model = &models.emplace_back(lane.p_rd, lane.t, line_bits);
    ctx.ledger = &ledgers.emplace_back();
    ctx.ways = c.hierarchy.l2.ways;
    ctx.write_fail_per_cell = lane.p_write;
    ctx.codeword_bits = lane.codeword_bits;
    ctx.check_on_dirty_eviction = cfg.check_on_dirty_eviction;
    ctx.scrub_every = cfg.scrub_every;
    policies.emplace_back(cfg.policy, ctx);
  }
  FanOut hooks{policies};
  trace::WorkloadTraceSource source(c.workload);
  sim::TraceCpu cpu(source, hier);
  cpu.run(c.warmup_instructions, hooks);
  cpu.run(c.instructions, hooks);

  expect_same_lines(hier.l1i(), ref.l1i(), "L1I");
  expect_same_lines(hier.l1d(), ref.l1d(), "L1D");
  expect_same_lines(hier.l2(), ref.l2(), "L2");
  sim::SetAssocCache& l2 = hier.l2();
  for (std::size_t s = 0; s < ref.l2().sets(); ++s)
    for (std::size_t w = 0; w < l2.config().ways; ++w) {
      const testref::RefLine& want = ref.l2().line(s, w);
      if (!want.valid) continue;
      for (std::size_t l = 0; l < cfgs.size(); ++l) {
        const auto got = l2.line_info(s, w, l);
        ASSERT_EQ(got.ones, ref.ones(want)) << s << "/" << w;
        ASSERT_EQ(got.reads_since_check, want.reads_since_check[l])
            << "lane " << l << " set " << s << " way " << w;
      }
    }
}

// Runs one pass through the engine and the reference model and compares
// everything; returns the engine's results.
std::vector<ExperimentResult> check_pass(
    const std::vector<ExperimentConfig>& cfgs) {
  const auto results = run_experiments(cfgs);
  ReferenceModel ref(cfgs);
  ref.run();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "lane " << i);
    expect_matches_reference(results[i], ref, i);
  }
  expect_same_end_state(cfgs, ref);
  return results;
}

class ReferenceModelGrid : public ::testing::TestWithParam<Env> {};

TEST_P(ReferenceModelGrid, EngineMatchesTheReferenceModel) {
  using PK = PolicyKind;
  const std::vector<std::vector<LaneSpec>> groups = {
      {{PK::conventional_parallel, 64, true}},
      {{PK::reap}},
      {{PK::serial_tag_then_data, 64, true}},
      {{PK::disruptive_restore, 64, true}},
      {{PK::scrub_piggyback, 1}},
      {{PK::scrub_piggyback, 3, true}},
      {{PK::scrub_piggyback, 64}},
      {{PK::conventional_parallel}, {PK::reap, 64, true}, {PK::scrub_piggyback, 3}},
      {{PK::serial_tag_then_data},
       {PK::disruptive_restore},
       {PK::scrub_piggyback, 64, true, 2}},
      {{PK::scrub_piggyback, 1, true}, {PK::conventional_parallel, 64, false, 2}},
      {{PK::reap, 64, false, 2}, {PK::disruptive_restore, 64, true, 2}},
  };
  const Env& env = GetParam();
  std::uint64_t concealed = 0;
  for (const auto& group : groups) {
    SCOPED_TRACE(describe(group));
    const auto results = check_pass(pass(env, group));
    if (HasFatalFailure()) return;
    // The window exercised what the comparisons guard.
    const sim::HierarchyStats& h = results.front().hier;
    EXPECT_GT(h.l2.read_hits, 0u);
    EXPECT_GT(h.l2.write_hits, 0u);
    EXPECT_GT(h.l2.dirty_evictions, 0u);
    for (const ExperimentResult& r : results)
      concealed = std::max(concealed, r.max_concealed);
  }
  EXPECT_GT(concealed, env.profile == Profile::hammer ? 100u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReferenceModelGrid,
    ::testing::Values(
        Env{"SmallLruRandomCold", false, sim::ReplacementKind::lru,
            Profile::random, 0},
        Env{"SmallLruHammerWarm", false, sim::ReplacementKind::lru,
            Profile::hammer, 4'000},
        Env{"SmallFifoHammerCold", false, sim::ReplacementKind::fifo,
            Profile::hammer, 0},
        Env{"SmallFifoRandomWarm", false, sim::ReplacementKind::fifo,
            Profile::random, 4'000},
        Env{"SmallRandomHammerWarm", false, sim::ReplacementKind::random_repl,
            Profile::hammer, 4'000},
        Env{"SmallRandomRandomCold", false, sim::ReplacementKind::random_repl,
            Profile::random, 0},
        Env{"TableOneLruHammerWarm", true, sim::ReplacementKind::lru,
            Profile::hammer, 4'000},
        Env{"TableOneRandomHammerCold", true,
            sim::ReplacementKind::random_repl, Profile::hammer, 0}),
    [](const ::testing::TestParamInfo<Env>& info) {
      return std::string(info.param.name);
    });

// Least-error-rate replacement reads a lane's counters to pick victims, so
// it runs one lane per pass.
TEST(ReferenceModel, LeastErrorRateMatchesForEveryPolicy) {
  for (const Profile profile : {Profile::random, Profile::hammer}) {
    const Env env{"ler", false, sim::ReplacementKind::least_error_rate,
                  profile, 2'000};
    for (const LaneSpec& lane :
         {LaneSpec{PolicyKind::conventional_parallel, 64, true},
          LaneSpec{PolicyKind::reap}, LaneSpec{PolicyKind::serial_tag_then_data},
          LaneSpec{PolicyKind::disruptive_restore, 64, true},
          LaneSpec{PolicyKind::scrub_piggyback, 3, true}}) {
      SCOPED_TRACE(describe({lane}) +
                   (profile == Profile::hammer ? "hammer" : "random"));
      check_pass(pass(env, {lane}));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace reap::core
