// The output step the three campaign CLIs share, driven through the real
// binaries: reap_campaign, a 2-worker reap_dispatch and reap_report over
// the campaign's journal write byte-identical CSV, JSONL, figure files and
// aggregate tables for one grid, and each refuses bad output flags before
// it writes a single file. A full disk fails each CLI with exit 1, and a
// refused or failed run leaves every existing output byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using testutil::file_bytes;
using testutil::temp_path;

const std::string kTinySpec = REAP_SOURCE_DIR "/specs/tiny.spec";

std::string fresh_dir(const char* name) {
  const auto dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') out += "'\\'";
    out += c;
  }
  return out + "'";
}

// Runs argv with stdout captured alone in `dir`/`name`.out (stderr goes to
// `name`.err); returns the exit status.
common::ExitStatus run(const std::vector<std::string>& argv,
                       const std::string& dir, const std::string& name) {
  std::string cmd;
  for (const auto& a : argv) cmd += shell_quote(a) + " ";
  cmd += "> " + shell_quote(dir + "/" + name + ".out") + " 2> " +
         shell_quote(dir + "/" + name + ".err");
  auto child = common::Child::spawn({"/bin/sh", "-c", cmd});
  EXPECT_TRUE(child);
  if (!child) return {};
  return child->wait();
}

// The aggregate tables: everything from the first table heading on.
std::string aggregate_block(const std::string& out) {
  const auto at = out.find("per-policy summary");
  return at == std::string::npos ? std::string() : out.substr(at);
}

TEST(CliOutputs, ThreeClisWriteTheSameBytes) {
  const auto dir = fresh_dir("cli_outputs");
  const auto c = dir + "/c.";
  const auto d = dir + "/d.";
  const auto r = dir + "/r.";

  auto status = run({REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec,
                     "--policies=all", "--threads=2", "--quiet",
                     "--journal=" + c + "journal", "--csv=" + c + "csv",
                     "--jsonl=" + c + "jsonl"},
                    dir, "campaign");
  ASSERT_TRUE(status.success()) << status.describe();
  status = run({REAP_DISPATCH_BIN, "--spec=" + kTinySpec, "--policies=all",
                "--workers=2", "--quiet",
                "--campaign-bin=" REAP_CAMPAIGN_BIN,
                "--work-dir=" + dir + "/work", "--csv=" + d + "csv",
                "--jsonl=" + d + "jsonl", "--figures=" + d + "figures"},
               dir, "dispatch");
  ASSERT_TRUE(status.success()) << status.describe();
  status = run({REAP_REPORT_BIN, c + "journal", "--merged-csv=" + r + "csv",
                "--merged-jsonl=" + r + "jsonl", "--figures=" + r + "figures"},
               dir, "report");
  ASSERT_TRUE(status.success()) << status.describe();

  const auto csv = file_bytes(c + "csv");
  const auto jsonl = file_bytes(c + "jsonl");
  ASSERT_EQ(std::count(csv.begin(), csv.end(), '\n'), 21);  // header + 20
  EXPECT_EQ(csv, file_bytes(d + "csv"));
  EXPECT_EQ(csv, file_bytes(r + "csv"));
  EXPECT_EQ(jsonl, file_bytes(d + "jsonl"));
  EXPECT_EQ(jsonl, file_bytes(r + "jsonl"));

  for (const char* name : {"fig5_mttf.csv", "fig6_energy.csv",
                           "policy_summary.csv", "fig5.gp", "fig6.gp"}) {
    const auto bytes = file_bytes(d + "figures/" + name);
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_EQ(bytes, file_bytes(r + "figures/" + name)) << name;
  }

  const auto tables = aggregate_block(file_bytes(dir + "/campaign.out"));
  ASSERT_FALSE(tables.empty());
  EXPECT_NE(tables.find("per-workload summary"), std::string::npos);
  EXPECT_EQ(tables, aggregate_block(file_bytes(dir + "/dispatch.out")));
  EXPECT_EQ(tables, aggregate_block(file_bytes(dir + "/report.out")));
}

TEST(CliOutputs, BaselineMissingFromTheGridIsNamed) {
  const auto dir = fresh_dir("cli_outputs_no_baseline");
  const auto status =
      run({REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--policies=reap",
           "--threads=2", "--quiet"},
          dir, "campaign");
  ASSERT_TRUE(status.success()) << status.describe();
  const auto out = file_bytes(dir + "/campaign.out");
  EXPECT_NE(out.find("\n(baseline conventional not in the grid; no "
                     "aggregates)\n"),
            std::string::npos)
      << out;
}

TEST(CliOutputs, BadOutputFlagsAreRefusedBeforeAnyFileIsWritten) {
  const auto dir = fresh_dir("cli_outputs_refused");
  const auto journal = dir + "/t.journal";
  const auto csv = dir + "/t.csv";
  // With and without --shard: a sharded run prints no aggregates, yet a
  // bad baseline name is still refused up front.
  for (const std::string shard : {"", "--shard=0/2"}) {
    std::vector<std::string> argv = {REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec,
                                     "--baseline=typo", "--journal=" + journal,
                                     "--csv=" + csv};
    if (!shard.empty()) argv.push_back(shard);
    const auto status = run(argv, dir, "campaign");
    ASSERT_TRUE(status.exited);
    EXPECT_EQ(status.code, 1) << shard;
    EXPECT_NE(file_bytes(dir + "/campaign.err")
                  .find("unknown --baseline policy: typo"),
              std::string::npos);
    EXPECT_EQ(file_bytes(dir + "/campaign.out"), "") << shard;
    EXPECT_FALSE(std::filesystem::exists(journal)) << shard;
    EXPECT_FALSE(std::filesystem::exists(csv)) << shard;
  }

  auto status =
      run({REAP_DISPATCH_BIN, "--spec=" + kTinySpec, "--baseline=typo",
           "--campaign-bin=" REAP_CAMPAIGN_BIN, "--work-dir=" + dir + "/work",
           "--csv=" + csv},
          dir, "dispatch");
  ASSERT_TRUE(status.exited);
  EXPECT_EQ(status.code, 1);
  EXPECT_FALSE(std::filesystem::exists(dir + "/work"));
  EXPECT_FALSE(std::filesystem::exists(csv));

  // reap_report needs rows to read; a valid journal stands in.
  const auto rows = dir + "/rows.journal";
  status = run({REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
                "--journal=" + rows},
               dir, "rows");
  ASSERT_TRUE(status.success()) << status.describe();
  const auto merged_csv = dir + "/m.csv";
  const auto merged_jsonl = dir + "/m.jsonl";
  const auto figures = dir + "/figures";
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--baseline=typo"},
        std::vector<std::string>{"--baseline=none", "--figures=" + figures}}) {
    std::vector<std::string> argv = {REAP_REPORT_BIN, rows,
                                     "--merged-csv=" + merged_csv,
                                     "--merged-jsonl=" + merged_jsonl};
    argv.insert(argv.end(), flags.begin(), flags.end());
    status = run(argv, dir, "report");
    ASSERT_TRUE(status.exited);
    EXPECT_EQ(status.code, 1) << flags[0];
    EXPECT_FALSE(std::filesystem::exists(merged_csv)) << flags[0];
    EXPECT_FALSE(std::filesystem::exists(merged_jsonl)) << flags[0];
    EXPECT_FALSE(std::filesystem::exists(figures)) << flags[0];
  }
}

// A full disk is a failed run: each CLI exits 1 naming the output it could
// not write, instead of leaving a short file behind and exiting 0.
TEST(CliOutputs, EachCliExitsOneWhenAnOutputHitsAFullDisk) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this host";
  const auto dir = fresh_dir("cli_outputs_full");
  const auto rows = dir + "/rows.journal";
  auto status = run({REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
                     "--journal=" + rows},
                    dir, "rows");
  ASSERT_TRUE(status.success()) << status.describe();

  const std::vector<std::vector<std::string>> runs = {
      {REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
       "--csv=/dev/full"},
      {REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
       "--jsonl=/dev/full"},
      {REAP_DISPATCH_BIN, "--spec=" + kTinySpec, "--workers=2", "--quiet",
       "--campaign-bin=" REAP_CAMPAIGN_BIN, "--work-dir=" + dir + "/work",
       "--csv=/dev/full"},
      {REAP_REPORT_BIN, rows, "--merged-csv=/dev/full"},
      {REAP_REPORT_BIN, rows, "--merged-jsonl=/dev/full"},
  };
  for (const auto& argv : runs) {
    SCOPED_TRACE(argv[0] + " " + argv.back());
    status = run(argv, dir, "full");
    ASSERT_TRUE(status.exited);
    EXPECT_EQ(status.code, 1);
    const auto err = file_bytes(dir + "/full.err");
    EXPECT_NE(err.find("output: /dev/full"), std::string::npos) << err;
  }
}

// Outputs are written beside their targets and renamed into place only
// once the whole output step succeeded. A run refused for one bad output
// path, or failed by one full-disk output, leaves an existing CSV, merged
// CSV and figure directory byte-identical, and no temporary file behind.
TEST(CliOutputs, ARefusedOrFailedRunLeavesExistingOutputsByteIdentical) {
  const auto dir = fresh_dir("cli_outputs_kept");
  const auto rows = dir + "/rows.journal";
  const auto csv = dir + "/c.csv";
  const auto merged = dir + "/m.csv";
  const auto figures = dir + "/figures";
  const auto dispatch_csv = dir + "/d.csv";
  const auto work = "--work-dir=" + dir + "/work";
  auto status = run({REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
                     "--journal=" + rows, "--csv=" + csv},
                    dir, "campaign");
  ASSERT_TRUE(status.success()) << status.describe();
  status = run({REAP_REPORT_BIN, rows, "--merged-csv=" + merged,
                "--figures=" + figures},
               dir, "report");
  ASSERT_TRUE(status.success()) << status.describe();
  status = run({REAP_DISPATCH_BIN, "--spec=" + kTinySpec, "--workers=2",
                "--quiet", "--campaign-bin=" REAP_CAMPAIGN_BIN, work,
                "--csv=" + dispatch_csv},
               dir, "dispatch");
  ASSERT_TRUE(status.success()) << status.describe();

  const auto snapshot = [&] {
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
      if (entry.is_regular_file() &&
          entry.path().parent_path() != std::filesystem::path(dir + "/work") &&
          entry.path().extension() != ".out" &&
          entry.path().extension() != ".err")
        files.emplace_back(entry.path().string(),
                           file_bytes(entry.path().string()));
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto before = snapshot();
  ASSERT_EQ(before.size(), 9u);  // journal, 3 CSVs, 5 figure files

  std::vector<std::string> bad = {dir + "/no/such/dir/x.jsonl"};
  if (std::filesystem::exists("/dev/full")) bad.push_back("/dev/full");
  for (const auto& jsonl : bad) {
    SCOPED_TRACE(jsonl);
    const std::vector<std::vector<std::string>> runs = {
        {REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
         "--csv=" + csv, "--jsonl=" + jsonl},
        {REAP_REPORT_BIN, rows, "--merged-csv=" + merged,
         "--merged-jsonl=" + jsonl, "--figures=" + figures},
        {REAP_DISPATCH_BIN, "--spec=" + kTinySpec, "--workers=2", "--quiet",
         "--campaign-bin=" REAP_CAMPAIGN_BIN, work, "--csv=" + dispatch_csv,
         "--jsonl=" + jsonl, "--figures=" + figures},
    };
    for (const auto& argv : runs) {
      SCOPED_TRACE(argv[0]);
      status = run(argv, dir, "bad");
      ASSERT_TRUE(status.exited);
      EXPECT_EQ(status.code, 1);
      EXPECT_TRUE(snapshot() == before);
    }
  }
}


// A journal whose header carries a damaged grid size is refused by both
// CLIs that read journals: reap_report names the header's line, and a
// resume names the field, instead of one of them loading the rows and
// dropping the completeness check the grid size is for.
TEST(CliOutputs, ADamagedJournalHeaderFailsTheReportAndTheResume) {
  const auto dir = fresh_dir("cli_outputs_bad_header");
  const auto rows = dir + "/rows.journal";
  auto status = run({REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
                     "--journal=" + rows},
                    dir, "rows");
  ASSERT_TRUE(status.success()) << status.describe();
  auto bytes = file_bytes(rows);
  const auto at = bytes.find("\"points\":");
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(at, bytes.find('\n'));
  bytes.insert(bytes.find(',', at), "x");
  std::ofstream(rows, std::ios::trunc) << bytes;

  status = run({REAP_REPORT_BIN, rows}, dir, "report");
  ASSERT_TRUE(status.exited);
  EXPECT_EQ(status.code, 1);
  auto err = file_bytes(dir + "/report.err");
  EXPECT_NE(err.find(rows + ":1: journal: bad points: "), std::string::npos)
      << err;

  status = run({REAP_CAMPAIGN_BIN, "--spec=" + kTinySpec, "--quiet",
                "--journal=" + rows, "--resume"},
               dir, "resume");
  ASSERT_TRUE(status.exited);
  EXPECT_EQ(status.code, 1);
  err = file_bytes(dir + "/resume.err");
  EXPECT_NE(err.find("cannot resume: journal: bad points: "),
            std::string::npos)
      << err;
}

}  // namespace
}  // namespace reap::campaign
