// merge_dispatch_journals loads shard journals in parallel. Its result must
// be the sequential one -- merge_tables over load_rows in path order --
// and a damaged or missing journal must fail the merge with the error of
// the first failing path in path order, whichever load finished first.
// merge_dispatch, which merges the rows the dispatcher's tailers kept and
// loads only the journals they could not vouch for, must give the same
// table and the same error.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/report.hpp"
#include "reap/campaign/result_sink.hpp"

namespace reap::campaign {
namespace {

using testutil::fake_run;
using testutil::grid_24;
using testutil::temp_path;

// grid_24's rows striped over `shards` journals, as reap_campaign
// --shard=i/N journals them (fake results); returns the paths.
std::vector<std::string> write_shard_journals(const std::string& tag,
                                              std::size_t shards) {
  const auto spec = grid_24();
  const auto points = expand(spec);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto path = temp_path((tag + "_" + std::to_string(s)).c_str());
    JournalWriter journal(
        path, JournalHeader::for_run(spec, points.size(), s, shards));
    EXPECT_TRUE(journal.ok()) << path;
    for (const auto& pt : shard(points, s, shards))
      journal.add(pt.key, result_cells(pt, fake_run(pt.config)));
    paths.push_back(path);
  }
  return paths;
}

std::optional<RowTable> merge_sequentially(
    const std::vector<std::string>& paths, std::string* error) {
  std::vector<RowTable> tables;
  for (const auto& path : paths) {
    auto table = load_rows(path, error);
    if (!table) return std::nullopt;
    tables.push_back(std::move(*table));
  }
  return merge_tables(std::move(tables), error);
}

// Flips one character inside the first row of the journal at `path`, so
// that row's CRC32C no longer matches (a middle row: the file has more).
void damage_first_row(const std::string& path) {
  std::string text = testutil::file_bytes(path);
  const auto row = text.find('\n') + 1;
  const auto at = text.find("mcf", row);
  ASSERT_LT(at, text.find('\n', row)) << "first row names no mcf cell";
  text[at + 2] = 'g';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

TEST(MergeDispatchJournals, ParallelLoadEqualsSequentialMerge) {
  for (const std::size_t shards : {1u, 2u, 5u}) {
    const auto paths =
        write_shard_journals("merge_par_" + std::to_string(shards), shards);
    std::string error;
    const auto parallel = merge_dispatch_journals(paths, &error);
    ASSERT_TRUE(parallel) << error;
    const auto sequential = merge_sequentially(paths, &error);
    ASSERT_TRUE(sequential) << error;
    EXPECT_EQ(parallel->header, sequential->header);
    EXPECT_EQ(parallel->rows, sequential->rows);
    EXPECT_EQ(parallel->expected_points, sequential->expected_points);
    EXPECT_EQ(parallel->truncated_tail, sequential->truncated_tail);
    EXPECT_TRUE(covers_all_indices(*parallel));
    EXPECT_EQ(parallel->rows.size(), 24u);
  }
}

TEST(MergeDispatchJournals, ErrorNamesTheFirstFailingPathInPathOrder) {
  auto paths = write_shard_journals("merge_err", 4);
  damage_first_row(paths[1]);
  std::filesystem::remove(paths[3]);

  std::string parallel_error, sequential_error;
  EXPECT_FALSE(merge_dispatch_journals(paths, &parallel_error));
  EXPECT_FALSE(merge_sequentially(paths, &sequential_error));
  EXPECT_EQ(parallel_error, sequential_error);
  EXPECT_NE(parallel_error.find(paths[1]), std::string::npos)
      << parallel_error;
  EXPECT_EQ(parallel_error.find(paths[3]), std::string::npos)
      << parallel_error;

  // With the damaged journal out of the list, the missing one is first.
  paths.erase(paths.begin() + 1);
  parallel_error.clear();
  sequential_error.clear();
  EXPECT_FALSE(merge_dispatch_journals(paths, &parallel_error));
  EXPECT_FALSE(merge_sequentially(paths, &sequential_error));
  EXPECT_EQ(parallel_error, sequential_error);
  EXPECT_NE(parallel_error.find("cannot open: " + paths[2]),
            std::string::npos)
      << parallel_error;
}

// The shard outcomes a dispatcher's tailers would leave for `paths`: each
// journal tailed once, whole, its rows kept when the tailer can vouch for
// them.
std::vector<ShardOutcome> tailed_outcomes(
    const std::vector<std::string>& paths) {
  std::vector<ShardOutcome> shards;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    JournalTailer tailer(paths[i]);
    tailer.poll();
    ShardOutcome s;
    s.shard = i;
    s.journal_path = paths[i];
    s.table = tailer.take_rows();
    shards.push_back(std::move(s));
  }
  return shards;
}

void expect_same_table(const RowTable& a, const RowTable& b) {
  EXPECT_EQ(a.header, b.header);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.expected_points, b.expected_points);
  EXPECT_EQ(a.truncated_tail, b.truncated_tail);
}

TEST(MergeDispatchJournals, KeptRowsMergeToTheTableOfTheJournals) {
  for (const std::size_t shards : {1u, 2u, 5u}) {
    const auto paths =
        write_shard_journals("merge_kept_" + std::to_string(shards), shards);
    auto outcomes = tailed_outcomes(paths);
    for (const auto& s : outcomes) EXPECT_TRUE(s.table) << s.journal_path;
    std::string error;
    const auto reread = merge_dispatch_journals(paths, &error);
    ASSERT_TRUE(reread) << error;
    const auto kept = merge_dispatch(outcomes, &error);
    ASSERT_TRUE(kept) << error;
    expect_same_table(*kept, *reread);
    // Kept and loaded shards mix freely.
    outcomes[0].table.reset();
    const auto mixed = merge_dispatch(outcomes, &error);
    ASSERT_TRUE(mixed) << error;
    expect_same_table(*mixed, *reread);
  }
}

// A journal its tailer could not vouch for is loaded: a corrupt row then
// fails the merge with the journals' error text, and a torn tail merges
// to the journals' table, truncated_tail included.
TEST(MergeDispatchJournals, UnvouchedJournalsGiveTheJournalsTableOrError) {
  auto paths = write_shard_journals("merge_unvouched", 3);
  damage_first_row(paths[1]);
  auto outcomes = tailed_outcomes(paths);
  EXPECT_TRUE(outcomes[0].table);
  EXPECT_FALSE(outcomes[1].table);
  EXPECT_TRUE(outcomes[2].table);
  std::string kept_error, reread_error;
  EXPECT_FALSE(merge_dispatch(outcomes, &kept_error));
  EXPECT_FALSE(merge_dispatch_journals(paths, &reread_error));
  EXPECT_EQ(kept_error, reread_error);
  EXPECT_NE(kept_error.find(paths[1]), std::string::npos) << kept_error;

  paths = write_shard_journals("merge_unvouched_torn", 3);
  std::ofstream(paths[2], std::ios::app) << "{\"key\":\"torn";
  outcomes = tailed_outcomes(paths);
  EXPECT_FALSE(outcomes[2].table);
  std::string error;
  const auto kept = merge_dispatch(outcomes, &error);
  ASSERT_TRUE(kept) << error;
  const auto reread = merge_dispatch_journals(paths, &error);
  ASSERT_TRUE(reread) << error;
  EXPECT_TRUE(kept->truncated_tail);
  expect_same_table(*kept, *reread);
}

TEST(MergeDispatchJournals, NothingToMergeIsAnError) {
  std::string error;
  EXPECT_FALSE(merge_dispatch_journals({}, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(merge_dispatch({}, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace reap::campaign
