// The campaign determinism contract: a K-thread run is bit-identical to a
// serial run of the same spec -- per-experiment results, emitted rows, and
// rendered aggregates alike.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "campaign_test_util.hpp"
#include "reap/campaign/aggregate.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/runner.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/common/fault.hpp"

namespace reap::campaign {
namespace {

using testutil::fake_run;
using testutil::grid_24;
using testutil::temp_path;

// A pass function built on the fake: one fake result per point.
std::vector<core::ExperimentResult> fake_pass(const Pass& pass) {
  std::vector<core::ExperimentResult> out;
  for (const CampaignPoint* pt : pass) out.push_back(fake_run(pt->config));
  return out;
}

std::string render_cells(const std::vector<CampaignPoint>& points,
                         const std::vector<core::ExperimentResult>& results) {
  std::ostringstream out;
  for (std::size_t i = 0; i < points.size(); ++i)
    for (const auto& cell : result_cells(points[i], results[i]))
      out << cell << '|';
  return out.str();
}

std::string render_run(const CampaignSpec& spec, unsigned threads) {
  const auto points = expand(spec);
  RunnerOptions opts;
  opts.threads = threads;
  opts.run_fn = fake_run;
  const auto results = CampaignRunner(opts).run(points);

  std::ostringstream out;
  for (std::size_t i = 0; i < points.size(); ++i)
    for (const auto& cell : result_cells(points[i], results[i]))
      out << cell << '|';
  const auto agg = aggregate(spec, points, results,
                             core::PolicyKind::conventional_parallel);
  if (agg) out << agg->render();
  return out.str();
}

TEST(CampaignRunner, FourThreadsByteIdenticalToOneThread) {
  const auto spec = grid_24();
  ASSERT_GE(spec.size(), 24u);
  const std::string serial = render_run(spec, 1);
  const std::string parallel = render_run(spec, 4);
  EXPECT_EQ(serial, parallel);
  // More threads than points must also be identical.
  EXPECT_EQ(serial, render_run(spec, 64));
}

TEST(CampaignRunner, RunsEveryPointExactlyOnce) {
  const auto spec = grid_24();
  const auto points = expand(spec);
  std::vector<std::atomic<int>> hits(points.size());
  RunnerOptions opts;
  opts.threads = 8;
  opts.run_fn = [&hits](const core::ExperimentConfig& cfg) {
    // Recover the point index from the instruction count we stash below.
    hits[cfg.instructions]++;
    core::ExperimentResult r;
    return r;
  };
  auto tagged = points;
  for (std::size_t i = 0; i < tagged.size(); ++i)
    tagged[i].config.instructions = i;
  CampaignRunner(opts).run(tagged);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "point " << i;
}

TEST(CampaignRunner, ResultsIndexedByGridIndex) {
  const auto spec = grid_24();
  const auto points = expand(spec);
  RunnerOptions opts;
  opts.threads = 4;
  opts.run_fn = fake_run;
  const auto results = CampaignRunner(opts).run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(results[i].workload, points[i].config.workload.name);
    EXPECT_EQ(results[i].policy, points[i].config.policy);
  }
}

TEST(CampaignRunner, ProgressReachesTotal) {
  const auto spec = grid_24();
  const auto points = expand(spec);
  RunnerOptions opts;
  opts.threads = 4;
  opts.run_fn = fake_run;
  std::size_t last_done = 0, calls = 0;
  opts.on_progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    last_done = std::max(last_done, done);
    EXPECT_EQ(total, points.size());
  };
  CampaignRunner(opts).run(points);
  EXPECT_EQ(calls, points.size());
  EXPECT_EQ(last_done, points.size());
}

TEST(CampaignRunner, HandlesEmptyAndTinyGrids) {
  RunnerOptions opts;
  opts.run_fn = fake_run;
  CampaignRunner runner(opts);
  EXPECT_TRUE(runner.run({}).empty());

  CampaignSpec spec;
  spec.workloads = {"mcf"};
  spec.policies = {core::PolicyKind::reap};
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 1u);
  const auto results = runner.run(points);
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].workload, "mcf");
}

// End-to-end determinism through the real simulator on a tiny grid. This
// is the expensive test in the suite (~a few seconds): real experiments,
// 1 vs 4 threads, byte-compared aggregate reports.
TEST(CampaignRunnerEndToEnd, RealExperimentsDeterministicAcrossThreads) {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = {core::PolicyKind::conventional_parallel,
                   core::PolicyKind::reap};
  spec.seeds = {0, 1};
  spec.base.instructions = 30'000;
  spec.base.warmup_instructions = 3'000;

  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 8u);

  RunnerOptions serial_opts;
  serial_opts.threads = 1;
  RunnerOptions parallel_opts;
  parallel_opts.threads = 4;

  const auto serial = CampaignRunner(serial_opts).run(points);
  const auto parallel = CampaignRunner(parallel_opts).run(points);

  std::ostringstream a, b;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const auto& cell : result_cells(points[i], serial[i])) a << cell << '|';
    for (const auto& cell : result_cells(points[i], parallel[i]))
      b << cell << '|';
  }
  const auto agg_a = aggregate(spec, points, serial,
                               core::PolicyKind::conventional_parallel);
  const auto agg_b = aggregate(spec, points, parallel,
                               core::PolicyKind::conventional_parallel);
  ASSERT_TRUE(agg_a && agg_b);
  a << agg_a->render();
  b << agg_b->render();
  EXPECT_EQ(a.str(), b.str());
}

// grid_24 has four trace groups (2 workloads x 2 seeds) of six points
// each (3 policies x 2 ecc), and all six of a group share a pass.
TEST(CampaignRunner, ShouldStopTakesEffectBetweenPasses) {
  const auto points = expand(grid_24());
  std::vector<const CampaignPoint*> delivered;
  std::size_t passes = 0;
  RunnerOptions opts;
  opts.threads = 1;
  opts.run_pass_fn = [&](const Pass& pass) {
    ++passes;
    return fake_pass(pass);
  };
  opts.on_result = [&](const CampaignPoint& pt, const core::ExperimentResult&) {
    delivered.push_back(&pt);
  };
  // Asks to stop as soon as the first row lands: the rest of its pass is
  // still delivered, the next pass never starts.
  opts.should_stop = [&] { return !delivered.empty(); };
  CampaignRunner(opts).run(points);
  EXPECT_EQ(passes, 1u);
  ASSERT_EQ(delivered.size(), 6u);
  for (const CampaignPoint* pt : delivered)
    EXPECT_EQ(pt->trace_key, delivered.front()->trace_key);
}

TEST(CampaignRunner, PassesFollowTraceGroupsAndSplitOnSharesPass) {
  auto points = expand(grid_24());
  // Least-error-rate replacement on one group's points: each runs alone.
  const std::string ler_key = points.front().trace_key;
  for (auto& pt : points)
    if (pt.trace_key == ler_key)
      pt.config.hierarchy.l2.replacement =
          sim::ReplacementKind::least_error_rate;
  std::vector<std::vector<std::string>> seen;
  RunnerOptions opts;
  opts.threads = 1;
  opts.run_pass_fn = [&](const Pass& pass) {
    seen.emplace_back();
    for (const CampaignPoint* pt : pass) seen.back().push_back(pt->trace_key);
    return fake_pass(pass);
  };
  CampaignRunner(opts).run(points);
  // 6 single-point passes for the split group, then 3 six-point passes.
  ASSERT_EQ(seen.size(), 9u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(seen[i], std::vector<std::string>{ler_key});
  std::set<std::string> keys{ler_key};
  for (std::size_t i = 6; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].size(), 6u);
    EXPECT_EQ(std::set<std::string>(seen[i].begin(), seen[i].end()).size(),
              1u);
    EXPECT_TRUE(keys.insert(seen[i].front()).second);
  }
}

// A crash injected at a pass's second point must take the process down
// before any row of that pass reaches the journal.
TEST(CampaignRunner, PointFaultFiresBeforeAnyRowOfItsPassIsJournaled) {
  const auto spec = grid_24();
  const auto points = expand(spec);
  // The second pass in schedule order: the trace group of the first point
  // whose trace_key differs from the first point's.
  std::string second_key;
  std::vector<const CampaignPoint*> second_pass;
  for (const auto& pt : points)
    if (pt.trace_key != points.front().trace_key) {
      if (second_key.empty()) second_key = pt.trace_key;
      if (pt.trace_key == second_key) second_pass.push_back(&pt);
    }
  ASSERT_EQ(second_pass.size(), 6u);
  const std::string poison = second_pass[1]->key;
  const std::string path = temp_path("runner_pass_fault.journal");

  EXPECT_EXIT(
      {
        common::fault::disarm();
        common::fault::arm("runner.point:crash:*:key=" + poison);
        JournalWriter journal(
            path, JournalHeader::for_run(spec, points.size(), 0, 1));
        RunnerOptions opts;
        opts.threads = 1;
        opts.run_pass_fn = fake_pass;
        opts.on_result = [&](const CampaignPoint& pt,
                             const core::ExperimentResult& r) {
          journal.add(pt.key, result_cells(pt, r));
        };
        CampaignRunner(opts).run(points);
      },
      ::testing::ExitedWithCode(common::fault::kCrashExit), "");

  std::string error;
  const auto loaded = read_journal(path, &error);
  ASSERT_TRUE(loaded) << error;
  // The first pass finished and was journaled; nothing of the second.
  EXPECT_EQ(loaded->rows.size(), 6u);
  for (const auto& row : loaded->rows)
    for (const CampaignPoint* pt : second_pass)
      EXPECT_NE(row.key, pt->key);
}

// Real group passes over every policy at two ecc levels, plus a trace
// group least-error-rate replacement splits into single-point passes:
// 1 and 4 threads emit the same bytes, and those are the bytes of running
// every point on its own.
TEST(CampaignRunnerEndToEnd, GroupPassesMatchPointByPointRunsOnAnyThreadCount) {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = core::all_policies();
  spec.ecc_ts = {1, 2};
  spec.seeds = {0, 1};
  spec.base.instructions = 8'000;
  spec.base.warmup_instructions = 800;
  auto points = expand(spec);
  ASSERT_EQ(points.size(), 40u);
  for (auto& pt : points)
    if (pt.workload_i == 1 && pt.seed_i == 1)
      pt.config.hierarchy.l2.replacement =
          sim::ReplacementKind::least_error_rate;

  RunnerOptions serial_opts;
  serial_opts.threads = 1;
  RunnerOptions parallel_opts;
  parallel_opts.threads = 4;
  RunnerOptions point_opts;
  point_opts.threads = 1;
  point_opts.run_fn = core::run_experiment;

  const std::string serial =
      render_cells(points, CampaignRunner(serial_opts).run(points));
  EXPECT_EQ(serial,
            render_cells(points, CampaignRunner(parallel_opts).run(points)));
  EXPECT_EQ(serial,
            render_cells(points, CampaignRunner(point_opts).run(points)));
}

}  // namespace
}  // namespace reap::campaign
