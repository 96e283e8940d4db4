// Offline post-processing: loading rows back from CSV/JSONL, merging shard
// outputs, recomputing aggregates that match the in-memory path
// byte-for-byte, and the output step the campaign CLIs share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "campaign_test_util.hpp"
#include "reap/campaign/aggregate.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/report.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/runner.hpp"
#include "reap/common/strings.hpp"
#include "reap/core/read_path.hpp"

namespace reap::campaign {
namespace {

using testutil::fake_run;
using testutil::file_bytes;
using testutil::grid_24;
using testutil::temp_path;

struct Campaign {
  std::vector<CampaignPoint> points;
  std::vector<core::ExperimentResult> results;
};

Campaign run_fake(const CampaignSpec& spec) {
  Campaign c;
  c.points = expand(spec);
  RunnerOptions opts;
  opts.threads = 1;
  opts.run_fn = fake_run;
  c.results = CampaignRunner(opts).run(c.points);
  return c;
}

TEST(Report, CsvRowsLoadBackVerbatim) {
  const auto c = run_fake(grid_24());
  const auto path = temp_path("report_load.csv");
  {
    CsvResultSink sink(path);
    emit_all(c.points, c.results, sink);
  }
  std::string error;
  const auto table = load_rows(path, &error);
  ASSERT_TRUE(table) << error;
  EXPECT_EQ(table->header, result_header());
  ASSERT_EQ(table->rows.size(), c.points.size());
  for (std::size_t i = 0; i < c.points.size(); ++i)
    EXPECT_EQ(table->rows[i], result_cells(c.points[i], c.results[i]));
  EXPECT_TRUE(covers_all_indices(*table));
  std::remove(path.c_str());
}

TEST(Report, JsonlRowsLoadBackVerbatim) {
  const auto c = run_fake(grid_24());
  const auto path = temp_path("report_load.jsonl");
  {
    JsonlResultSink sink(path);
    emit_all(c.points, c.results, sink);
  }
  std::string error;
  const auto table = load_rows(path, &error);  // sniffed as JSONL
  ASSERT_TRUE(table) << error;
  EXPECT_EQ(table->header, result_header());
  ASSERT_EQ(table->rows.size(), c.points.size());
  for (std::size_t i = 0; i < c.points.size(); ++i)
    EXPECT_EQ(table->rows[i], result_cells(c.points[i], c.results[i]));
  std::remove(path.c_str());
}

TEST(Report, JournalsLoadAsRowTables) {
  const auto spec = grid_24();
  const auto c = run_fake(spec);
  const auto path = temp_path("report_journal.jsonl");
  {
    JournalWriter writer(
        path, JournalHeader::for_run(spec, c.points.size(), 0, 1));
    // Completion order scrambled: odd rows first.
    for (std::size_t i = 1; i < c.points.size(); i += 2)
      writer.add(c.points[i].key, result_cells(c.points[i], c.results[i]));
    for (std::size_t i = 0; i < c.points.size(); i += 2)
      writer.add(c.points[i].key, result_cells(c.points[i], c.results[i]));
  }
  std::string error;
  auto table = load_rows(path, &error);
  ASSERT_TRUE(table) << error;
  EXPECT_EQ(table->header, result_header());  // header line + key stripped
  EXPECT_EQ(table->rows.size(), c.points.size());
  auto merged = merge_tables({std::move(*table)}, &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_TRUE(covers_all_indices(*merged));
  std::remove(path.c_str());
}

TEST(Report, JournalGridSizeCatchesADensePrefix) {
  // A single-threaded run killed after k rows journals a dense 0..k-1
  // prefix; without the journal's recorded grid size that is
  // indistinguishable from a complete smaller campaign.
  const auto spec = grid_24();
  const auto c = run_fake(spec);
  const auto path = temp_path("report_prefix.jsonl");
  {
    JournalWriter writer(
        path, JournalHeader::for_run(spec, c.points.size(), 0, 1));
    for (std::size_t i = 0; i < 5; ++i)  // dense prefix, then "killed"
      writer.add(c.points[i].key, result_cells(c.points[i], c.results[i]));
    std::ofstream torn(path, std::ios::app);
    torn << "{\"key\":\"torn";
  }
  std::string error;
  auto table = load_rows(path, &error);
  ASSERT_TRUE(table) << error;
  EXPECT_TRUE(table->truncated_tail);
  ASSERT_TRUE(table->expected_points);
  EXPECT_EQ(*table->expected_points, c.points.size());
  const auto merged = merge_tables({std::move(*table)}, &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_TRUE(merged->truncated_tail);
  EXPECT_FALSE(covers_all_indices(*merged));  // prefix != complete
  std::remove(path.c_str());
}

TEST(Report, MergedShardCsvIsByteIdenticalToSingleRun) {
  const auto c = run_fake(grid_24());
  const auto full = temp_path("report_full.csv");
  const auto s0 = temp_path("report_s0.csv");
  const auto s1 = temp_path("report_s1.csv");
  {
    CsvResultSink sink(full);
    emit_all(c.points, c.results, sink);
  }
  {
    CsvResultSink sink0(s0);
    CsvResultSink sink1(s1);
    for (std::size_t i = 0; i < c.points.size(); ++i)
      (i % 2 ? sink1 : sink0).add(c.points[i], c.results[i]);
  }
  std::string error;
  auto t0 = load_rows(s0, &error);
  auto t1 = load_rows(s1, &error);
  ASSERT_TRUE(t0 && t1) << error;
  EXPECT_FALSE(covers_all_indices(*t0));  // a lone shard is partial
  std::vector<RowTable> tables;
  tables.push_back(std::move(*t1));  // reversed order: merge must re-sort
  tables.push_back(std::move(*t0));
  const auto merged = merge_tables(std::move(tables), &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_TRUE(covers_all_indices(*merged));

  const auto remerged = temp_path("report_merged.csv");
  {
    CsvResultSink sink(remerged);
    for (const auto& row : merged->rows) sink.add_cells(row);
  }
  EXPECT_EQ(file_bytes(full), file_bytes(remerged));
  for (const auto& p : {full, s0, s1, remerged}) std::remove(p.c_str());
}

TEST(Report, MergeRejectsConflictingDuplicates) {
  const auto c = run_fake(grid_24());
  RowTable a, b;
  a.header = b.header = result_header();
  a.rows.push_back(result_cells(c.points[0], c.results[0]));
  b.rows.push_back(result_cells(c.points[0], c.results[1]));  // same index 0
  std::string error;
  EXPECT_FALSE(merge_tables({a, b}, &error));
  EXPECT_NE(error.find("conflicting"), std::string::npos);
  // Byte-identical duplicates collapse silently.
  b.rows[0] = a.rows[0];
  const auto merged = merge_tables({a, b}, &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_EQ(merged->rows.size(), 1u);
}

// The headline parity pin: aggregates recomputed from CSV cells alone
// render the exact bytes the in-memory aggregation prints. (Shortest
// round-trip cell formatting makes the parsed doubles exact, and both
// paths share compare_metrics/summarize_comparisons.)
// The third grid is fleet-shaped: every policy, two ECC strengths and
// enough seeds that the rows span several of aggregate_rows' chunks.
TEST(Report, AggregateRowsMatchesInMemoryAggregateByteForByte) {
  auto ratio_axis = grid_24();
  ratio_axis.read_ratios = {0.55, 0.8};
  auto fleet = grid_24();
  fleet.workloads = {"mcf", "h264ref", "lbm", "namd", "bwaves"};
  fleet.policies = core::all_policies();
  fleet.seeds.clear();
  for (std::uint64_t s = 0; s < 12; ++s) fleet.seeds.push_back(s);
  ASSERT_GT(fleet.size(), 512u);
  for (const auto& spec : {grid_24(), ratio_axis, fleet}) {
    const auto c = run_fake(spec);
    const auto baseline = core::PolicyKind::conventional_parallel;
    const auto in_memory = aggregate(spec, c.points, c.results, baseline);
    ASSERT_TRUE(in_memory);

    const auto path = temp_path("report_parity.csv");
    {
      CsvResultSink sink(path);
      emit_all(c.points, c.results, sink);
    }
    std::string error;
    const auto table = load_rows(path, &error);
    ASSERT_TRUE(table) << error;
    const auto offline = aggregate_rows(*table, baseline, &error);
    ASSERT_TRUE(offline) << error;

    EXPECT_EQ(in_memory->render(), offline->render());
    EXPECT_EQ(in_memory->comparisons.size(), offline->comparisons.size());
    for (std::size_t i = 0; i < in_memory->comparisons.size(); ++i) {
      EXPECT_EQ(in_memory->comparisons[i].index,
                offline->comparisons[i].index);
      EXPECT_EQ(in_memory->comparisons[i].mttf_gain,
                offline->comparisons[i].mttf_gain);
      EXPECT_EQ(in_memory->comparisons[i].energy_ratio,
                offline->comparisons[i].energy_ratio);
      EXPECT_EQ(in_memory->comparisons[i].speedup,
                offline->comparisons[i].speedup);
    }
    std::remove(path.c_str());
  }
}

// A row's baseline partner is the row whose config equals its own but for
// the policy, however the config is spelled: token order, a repeated key
// (the last value counts), a repeated or missing policy token. Respelled
// configs -- some found by the config without policy, the rest only by
// the partner key -- give the aggregates of the rows as written.
TEST(Report, AggregateRowsFindsPartnersHoweverTheConfigIsSpelled) {
  auto spec = grid_24();
  spec.policies = core::all_policies();
  const auto c = run_fake(spec);
  RowTable table;
  table.header = result_header();
  for (std::size_t i = 0; i < c.points.size(); ++i)
    table.rows.push_back(result_cells(c.points[i], c.results[i]));
  const auto baseline = core::PolicyKind::conventional_parallel;
  std::string error;
  const auto expected = aggregate_rows(table, baseline, &error);
  ASSERT_TRUE(expected) << error;
  ASSERT_FALSE(expected->comparisons.empty());

  const std::size_t config = *table.col("config");
  std::mt19937 rng(5);
  auto respelled = table;
  for (std::size_t i = 0; i < respelled.rows.size(); ++i) {
    auto& cell = respelled.rows[i][config];
    auto tokens = common::split(cell, ' ');
    switch (i % 5) {
      case 0:  // as written
        break;
      case 1:
        std::shuffle(tokens.begin(), tokens.end(), rng);
        break;
      case 2:  // a key given twice: the later value counts
        tokens.insert(tokens.begin(), "ecc_t=99");
        break;
      case 3:  // the policy token repeated, then dropped outright
        tokens.push_back("policy=" + tokens[1].substr(7));
        break;
      case 4:
        tokens.erase(tokens.begin() + 1);
        break;
    }
    cell = common::join(tokens, ' ');
  }
  const auto got = aggregate_rows(respelled, baseline, &error);
  ASSERT_TRUE(got) << error;
  EXPECT_EQ(got->render(), expected->render());
  ASSERT_EQ(got->comparisons.size(), expected->comparisons.size());
  for (std::size_t i = 0; i < got->comparisons.size(); ++i) {
    EXPECT_EQ(got->comparisons[i].index, expected->comparisons[i].index);
    EXPECT_EQ(got->comparisons[i].baseline_index,
              expected->comparisons[i].baseline_index);
  }

  // A key whose values differ is a different partner: no comparison.
  auto unmatched = table;
  for (auto& row : unmatched.rows)
    if (row[*table.col("policy")] != "conventional")
      row[config] += " l2_ways=3";
  const auto none = aggregate_rows(unmatched, baseline, &error);
  ASSERT_TRUE(none) << error;
  EXPECT_TRUE(none->comparisons.empty());
}

TEST(Report, AggregateRowsNeedsBaselineRows) {
  auto spec = grid_24();
  spec.policies = {core::PolicyKind::reap};
  const auto c = run_fake(spec);
  RowTable table;
  table.header = result_header();
  for (std::size_t i = 0; i < c.points.size(); ++i)
    table.rows.push_back(result_cells(c.points[i], c.results[i]));
  std::string error;
  EXPECT_FALSE(aggregate_rows(
      table, core::PolicyKind::conventional_parallel, &error));
  EXPECT_NE(error.find("baseline"), std::string::npos);
}

TEST(Report, WritesFigureDataAndGnuplotScripts) {
  const auto spec = grid_24();
  const auto c = run_fake(spec);
  const auto agg = aggregate(spec, c.points, c.results,
                             core::PolicyKind::conventional_parallel);
  ASSERT_TRUE(agg);
  const auto dir = temp_path("report_figures");
  std::string error;
  const auto written = write_figure_data(*agg, dir, &error);
  ASSERT_TRUE(written) << error;
  for (const char* name : {"fig5_mttf.csv", "fig6_energy.csv",
                           "policy_summary.csv", "fig5.gp", "fig6.gp"})
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / name))
        << name;
  // fig5 bar data: workload rows x policy columns.
  std::ifstream fig5(std::filesystem::path(dir) / "fig5_mttf.csv");
  std::string header;
  ASSERT_TRUE(std::getline(fig5, header));
  EXPECT_EQ(header, "workload,reap,serial");
  std::string row;
  std::size_t rows = 0;
  while (std::getline(fig5, row)) ++rows;
  EXPECT_EQ(rows, spec.workloads.size());
  std::filesystem::remove_all(dir);
}

// --- Output step -----------------------------------------------------------

RowTable table_of(const Campaign& c) {
  RowTable table;
  table.header = result_header();
  for (std::size_t i = 0; i < c.points.size(); ++i)
    table.rows.push_back(result_cells(c.points[i], c.results[i]));
  return table;
}

TEST(OutputStep, CheckRefusesUnknownBaselineAndFiguresWithoutOne) {
  std::string error;
  OutputRequest request;
  ASSERT_TRUE(check_output_request(request, &error)) << error;
  EXPECT_EQ(request.baseline, core::PolicyKind::conventional_parallel);

  request.baseline_name = "typo";
  EXPECT_FALSE(check_output_request(request, &error));
  EXPECT_NE(error.find("unknown --baseline policy: typo"), std::string::npos);
  EXPECT_FALSE(request.baseline);

  request.baseline_name = "none";
  ASSERT_TRUE(check_output_request(request, &error)) << error;
  EXPECT_FALSE(request.baseline);
  request.figures = "figs";
  EXPECT_FALSE(check_output_request(request, &error));
  EXPECT_NE(error.find("--figures"), std::string::npos);
}

TEST(OutputStep, WritesEveryRequestedSink) {
  const auto spec = grid_24();
  const auto c = run_fake(spec);
  const auto ref_csv = temp_path("step_ref.csv");
  const auto ref_jsonl = temp_path("step_ref.jsonl");
  {
    CsvResultSink csv(ref_csv);
    JsonlResultSink jsonl(ref_jsonl);
    emit_all(c.points, c.results, csv);
    emit_all(c.points, c.results, jsonl);
  }
  OutputRequest request;
  request.csv = temp_path("step.csv");
  request.jsonl = temp_path("step.jsonl");
  request.figures = temp_path("step_figures");
  std::string error;
  ASSERT_TRUE(check_output_request(request, &error)) << error;
  auto sinks = open_sinks(request, result_header(), &error);
  ASSERT_TRUE(sinks) << error;
  const auto table = table_of(c);
  const auto out =
      write_outputs(table, request, std::move(*sinks), true, &error);
  ASSERT_TRUE(out) << error;

  EXPECT_EQ(file_bytes(ref_csv), file_bytes(*request.csv));
  EXPECT_EQ(file_bytes(ref_jsonl), file_bytes(*request.jsonl));
  const auto in_memory = aggregate(spec, c.points, c.results,
                                   core::PolicyKind::conventional_parallel);
  ASSERT_TRUE(in_memory);
  ASSERT_TRUE(out->agg);
  EXPECT_EQ(out->tables, in_memory->render());
  EXPECT_EQ(out->figure_files.size(), 5u);
  for (const auto& path : out->figure_files)
    EXPECT_TRUE(std::filesystem::exists(path)) << path;

  // Without `aggregate` the step writes the rows and nothing else.
  const auto rows_only = temp_path("step_rows_only");
  std::filesystem::remove_all(rows_only);
  request.figures = rows_only;
  sinks = open_sinks(request, result_header(), &error);
  ASSERT_TRUE(sinks) << error;
  const auto rows =
      write_outputs(table, request, std::move(*sinks), false, &error);
  ASSERT_TRUE(rows) << error;
  EXPECT_FALSE(rows->agg);
  EXPECT_TRUE(rows->tables.empty());
  EXPECT_TRUE(rows->figure_files.empty());
  EXPECT_FALSE(std::filesystem::exists(rows_only));
  EXPECT_EQ(file_bytes(ref_csv), file_bytes(*request.csv));

  for (const auto& p : {ref_csv, ref_jsonl, *request.csv, *request.jsonl})
    std::remove(p.c_str());
  std::filesystem::remove_all(temp_path("step_figures"));
}

TEST(OutputStep, ForeignColumnsAreRefusedBeforeAnySinkTruncates) {
  const auto path = temp_path("step_keep.csv");
  {
    std::ofstream out(path);
    out << "precious\n";
  }
  OutputRequest request;
  request.csv = path;
  auto columns = result_header();
  columns.push_back("extra");
  std::string error;
  EXPECT_FALSE(open_sinks(request, columns, &error));
  EXPECT_NE(error.find("columns differ"), std::string::npos);
  EXPECT_EQ(file_bytes(path), "precious\n");

  // No sink requested: any columns will do (aggregation reads by name).
  request.csv.reset();
  EXPECT_TRUE(open_sinks(request, columns, &error)) << error;

  request.csv = temp_path("no_such_dir/out.csv");
  EXPECT_FALSE(open_sinks(request, result_header(), &error));
  EXPECT_NE(error.find("cannot write csv output"), std::string::npos);
  std::remove(path.c_str());
}

TEST(OutputStep, FailedAggregationIsAnErrorOnlyWithFigures) {
  auto spec = grid_24();
  spec.policies = {core::PolicyKind::reap};
  const auto table = table_of(run_fake(spec));
  OutputRequest request;
  std::string error;
  ASSERT_TRUE(check_output_request(request, &error)) << error;
  const auto out = write_outputs(table, request, {}, true, &error);
  ASSERT_TRUE(out) << error;
  EXPECT_FALSE(out->agg);
  EXPECT_NE(out->agg_error.find("baseline"), std::string::npos);

  request.figures = temp_path("step_no_figures");
  EXPECT_FALSE(write_outputs(table, request, {}, true, &error));
  EXPECT_EQ(error.rfind("no aggregates: ", 0), 0u) << error;
  EXPECT_FALSE(std::filesystem::exists(*request.figures));
}

}  // namespace
}  // namespace reap::campaign
