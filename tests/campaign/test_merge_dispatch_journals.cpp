// merge_dispatch_journals loads shard journals in parallel. Its result must
// be the sequential one -- merge_tables over load_rows in path order --
// and a damaged or missing journal must fail the merge with the error of
// the first failing path in path order, whichever load finished first.
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

TEST(MergeDispatchJournals, NothingToMergeIsAnError) {
  std::string error;
  EXPECT_FALSE(merge_dispatch_journals({}, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace reap::campaign
