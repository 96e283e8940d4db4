// Shard/resume invariants: shards partition the grid exactly; row keys are
// stable coordinates, not positions; and a killed-and-resumed run merges
// to output byte-identical to an uninterrupted one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <tuple>
#include <unordered_set>

#include "campaign_test_util.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/runner.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/core/config_kv.hpp"

namespace reap::campaign {
namespace {

using testutil::fake_run;
using testutil::file_bytes;
using testutil::grid_24;
using testutil::temp_path;

TEST(Shard, PartitionsTheGridExactly) {
  const auto points = expand(grid_24());
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{5}, std::size_t{24},
                              std::size_t{40}}) {
    std::unordered_set<std::size_t> seen;
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto part = shard(points, i, n);
      EXPECT_EQ(shard_size(points.size(), i, n), part.size())
          << "i=" << i << " n=" << n;
      for (const auto& pt : part) {
        EXPECT_TRUE(seen.insert(pt.index).second)
            << "index " << pt.index << " in two shards (n=" << n << ")";
        EXPECT_EQ(pt.index % n, i);
      }
      // Expansion order is preserved within a shard.
      EXPECT_TRUE(std::is_sorted(part.begin(), part.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.index < b.index;
                                 }));
      total += part.size();
    }
    EXPECT_EQ(total, points.size()) << "n=" << n;
    EXPECT_EQ(seen.size(), points.size()) << "n=" << n;
  }
}

TEST(Shard, RejectsBadArguments) {
  const auto points = expand(grid_24());
  EXPECT_THROW(shard(points, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard(points, 2, 2), std::invalid_argument);
  EXPECT_THROW(expand(grid_24(), 0, 0), std::invalid_argument);
  EXPECT_THROW(expand(grid_24(), 2, 2), std::invalid_argument);
}

// A --shard=i/N worker expands only its own points. They must be exactly
// the ones shard() picks from the full expansion -- same index, key,
// trace key, axis coordinates and config -- on grids that use every
// axis, and the grid size the worker records is spec.size().
TEST(Shard, ShardedExpandEqualsShardOfTheFullExpansion) {
  std::vector<CampaignSpec> specs(3, grid_24());
  specs[1].scrub_everys = {4, 64};
  specs[1].policies.push_back(core::PolicyKind::scrub_piggyback);
  specs[2].read_ratios = {0.45, 0.55, 0.65};
  specs[2].scrub_everys = {8, 16};
  specs[2].seeds = {0, 3, 5};
  for (const auto& spec : specs) {
    const auto full = expand(spec);
    ASSERT_EQ(full.size(), spec.size());
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{7}}) {
      std::size_t total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("shard " + std::to_string(i) + "/" + std::to_string(n) +
                     " of " + std::to_string(spec.size()) + " points");
        const auto expected = shard(full, i, n);
        const auto mine = expand(spec, i, n);
        ASSERT_EQ(mine.size(), expected.size());
        EXPECT_EQ(mine.size(), shard_size(spec.size(), i, n));
        for (std::size_t k = 0; k < mine.size(); ++k) {
          const auto& a = mine[k];
          const auto& b = expected[k];
          EXPECT_EQ(a.index, b.index);
          EXPECT_EQ(shard_of(a.index, n), i);
          EXPECT_EQ(a.key, b.key);
          EXPECT_EQ(a.trace_key, b.trace_key);
          EXPECT_EQ(std::tie(a.workload_i, a.policy_i, a.ecc_i, a.scrub_i,
                             a.ratio_i, a.seed_i),
                    std::tie(b.workload_i, b.policy_i, b.ecc_i, b.scrub_i,
                             b.ratio_i, b.seed_i));
          EXPECT_EQ(core::to_kv_string(a.config),
                    core::to_kv_string(b.config));
          EXPECT_EQ(a.config.workload.seed, b.config.workload.seed);
        }
        total += mine.size();
      }
      EXPECT_EQ(total, spec.size());
    }
  }
}

TEST(RowKey, IsAStableCoordinateNotAPosition) {
  const auto spec = grid_24();
  const auto points = expand(spec);

  // Appending values to any axis must not change existing keys, even
  // though it renumbers every index after the insertion point.
  auto grown = spec;
  grown.workloads.push_back("perlbench");
  grown.ecc_ts.push_back(3);
  grown.seeds.push_back(7);
  const auto grown_points = expand(grown);

  std::unordered_set<std::string> grown_keys;
  for (const auto& pt : grown_points) grown_keys.insert(pt.key);
  for (const auto& pt : points)
    EXPECT_TRUE(grown_keys.count(pt.key)) << pt.key;

  // Keys are unique within a grid.
  std::unordered_set<std::string> keys;
  for (const auto& pt : points)
    EXPECT_TRUE(keys.insert(pt.key).second) << pt.key;

  // And encode the design coordinates: paired points (same environment,
  // different policy) must have different keys.
  EXPECT_EQ(points[0].config.seed, points[4].config.seed);  // paired
  EXPECT_NE(points[0].key, points[4].key);
}

TEST(SpecHash, TracksEveryBinaryRelevantField) {
  const auto spec = grid_24();
  EXPECT_EQ(spec_hash(spec), spec_hash(grid_24()));  // deterministic

  auto changed = spec;
  changed.read_ratios = {0.55};
  EXPECT_NE(spec_hash(changed), spec_hash(spec));
  changed = spec;
  changed.campaign_seed ^= 1;
  EXPECT_NE(spec_hash(changed), spec_hash(spec));
  changed = spec;
  changed.base.warmup_instructions += 1;
  EXPECT_NE(spec_hash(changed), spec_hash(spec));
  changed = spec;
  changed.base.hierarchy.l2.ways = 16;
  EXPECT_NE(spec_hash(changed), spec_hash(spec));
}

// The golden pipeline pin: completion-order journaling followed by the
// index-ordered merge produces CSV and JSONL byte-identical to the
// original "run everything, then emit_all" path.
TEST(StreamingPipeline, MergedOutputByteIdenticalToDirectSinks) {
  const auto points = expand(grid_24());

  RunnerOptions direct_opts;
  direct_opts.threads = 1;
  direct_opts.run_fn = fake_run;
  const auto results = CampaignRunner(direct_opts).run(points);

  const auto direct_csv = temp_path("direct.csv");
  const auto direct_jsonl = temp_path("direct.jsonl");
  {
    CsvResultSink csv(direct_csv);
    JsonlResultSink jsonl(direct_jsonl);
    emit_all(points, results, csv);
    emit_all(points, results, jsonl);
  }

  // Streaming path, completion order deliberately scrambled.
  RunnerOptions stream_opts;
  stream_opts.threads = 1;
  stream_opts.run_fn = fake_run;
  std::vector<JournalRow> rows;
  stream_opts.on_result = [&](const CampaignPoint& pt,
                              const core::ExperimentResult& r) {
    rows.push_back({pt.key, pt.index, result_cells(pt, r)});
  };
  CampaignRunner(stream_opts).run(points);
  std::shuffle(rows.begin(), rows.end(), std::mt19937{1234});

  const auto merged_csv = temp_path("merged.csv");
  const auto merged_jsonl = temp_path("merged.jsonl");
  {
    CsvResultSink csv(merged_csv);
    JsonlResultSink jsonl(merged_jsonl);
    const auto merged = merge_journal_rows(std::move(rows), {});
    emit_rows(merged, csv);
    emit_rows(merged, jsonl);
  }

  EXPECT_EQ(file_bytes(direct_csv), file_bytes(merged_csv));
  EXPECT_EQ(file_bytes(direct_jsonl), file_bytes(merged_jsonl));
  for (const auto& p : {direct_csv, direct_jsonl, merged_csv, merged_jsonl})
    std::remove(p.c_str());
}

// Kill-mid-run simulation at the library level: journal a prefix of a
// shard plus a torn line, then resume (skip completed, run the rest,
// merge). The shard's CSV must be byte-identical to an uninterrupted run.
TEST(Resume, KillMidRunThenResumeIsByteIdentical) {
  const auto spec = grid_24();
  const auto points = expand(spec);
  const auto mine = shard(points, 1, 2);
  ASSERT_GE(mine.size(), 4u);

  RunnerOptions opts;
  opts.threads = 1;
  opts.run_fn = fake_run;

  // Uninterrupted reference.
  const auto ref_csv = temp_path("resume_ref.csv");
  {
    const auto results = CampaignRunner(opts).run(mine);
    CsvResultSink csv(ref_csv);
    emit_all(mine, results, csv);
  }

  // "Crashed" journal: first 3 completed rows + a torn tail.
  const auto journal_path = temp_path("resume_crash.jsonl");
  {
    std::vector<JournalRow> rows;
    auto stream = opts;
    stream.on_result = [&](const CampaignPoint& pt,
                           const core::ExperimentResult& r) {
      rows.push_back({pt.key, pt.index, result_cells(pt, r)});
    };
    CampaignRunner(stream).run(mine);
    JournalWriter writer(journal_path,
                         JournalHeader::for_run(spec, points.size(), 1, 2));
    for (std::size_t i = 0; i < 3; ++i) writer.add(rows[i].key, rows[i].cells);
    std::ofstream torn(journal_path, std::ios::app);
    torn << "{\"key\":\"" << rows[3].key << "\",\"index\":";
  }

  // Resume: load, verify, skip completed, run the remainder, merge.
  std::string error;
  auto journal = read_journal(journal_path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_TRUE(journal->truncated_tail);
  std::string why;
  ASSERT_TRUE(journal_compatible(journal->header, spec, points.size(), 1, 2,
                                 &why))
      << why;
  ASSERT_TRUE(rewrite_journal(journal_path, *journal, &error)) << error;

  std::unordered_set<std::string> completed;
  for (const auto& row : journal->rows) completed.insert(row.key);
  EXPECT_EQ(completed.size(), 3u);
  std::vector<CampaignPoint> to_run;
  for (const auto& pt : mine)
    if (!completed.count(pt.key)) to_run.push_back(pt);
  EXPECT_EQ(to_run.size(), mine.size() - 3);

  std::vector<JournalRow> fresh;
  auto resume_opts = opts;
  resume_opts.on_result = [&](const CampaignPoint& pt,
                              const core::ExperimentResult& r) {
    auto cells = result_cells(pt, r);
    JournalWriter appender(journal_path);
    appender.add(pt.key, cells);
    fresh.push_back({pt.key, pt.index, std::move(cells)});
  };
  CampaignRunner(resume_opts).run(to_run);

  const auto resumed_csv = temp_path("resume_merged.csv");
  {
    CsvResultSink csv(resumed_csv);
    emit_rows(merge_journal_rows(std::move(journal->rows), std::move(fresh)),
              csv);
  }
  EXPECT_EQ(file_bytes(ref_csv), file_bytes(resumed_csv));

  // The journal on disk is now complete and clean: a second resume would
  // have nothing to run.
  const auto final_journal = read_journal(journal_path, &error);
  ASSERT_TRUE(final_journal) << error;
  EXPECT_FALSE(final_journal->truncated_tail);
  EXPECT_EQ(final_journal->rows.size(), mine.size());

  for (const auto& p : {ref_csv, journal_path, resumed_csv})
    std::remove(p.c_str());
}

}  // namespace
}  // namespace reap::campaign
