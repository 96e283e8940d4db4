// Chaos drills: the robustness layer exercised end-to-end against the
// real reap_campaign / reap_dispatch / reap_report binaries, with
// failures *injected* (REAP_FAULT / --inject-fault) rather than hoped
// for. Each drill pins
// one leg of the contract in docs/robustness.md: a poisoned grid point
// is bisected to and quarantined while the rest of the campaign is
// delivered; a hung worker is caught by the watchdog (SIGTERM, then
// SIGKILL) and its poison pinned; journal ENOSPC/EIO and torn-write
// crashes exit with their distinct codes and resume losslessly; SIGTERM
// stops a run at a row boundary; the dispatch CLI maps every outcome
// onto its documented exit code; and a CSV/JSONL output failing mid-file
// or at its close fails every CLI without touching the existing file.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/exit_codes.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using testutil::events_of;
using testutil::file_bytes;
using testutil::temp_path;
using Kind = DispatchEvent::Kind;

// Sets REAP_FAULT for the duration of a scope. Only spawned children act
// on it (they arm_from_env at startup); this process never arms.
class EnvFault {
 public:
  explicit EnvFault(const std::string& spec) {
    ::setenv(common::fault::kEnvVar, spec.c_str(), 1);
  }
  ~EnvFault() { ::unsetenv(common::fault::kEnvVar); }
};

// 2 workloads x 2 policies x 2 seeds = 8 points, ~instant per point.
std::map<std::string, std::string> grid8(const char* name) {
  return {{"name", name},
          {"workloads", "mcf,h264ref"},
          {"policies", "conventional,reap"},
          {"seeds", "0,1"},
          {"instructions", "20000"},
          {"warmup", "2000"}};
}

// 1 workload x 2 policies x 2 seeds = 4 points.
std::map<std::string, std::string> grid4(const char* name) {
  auto kv = grid8(name);
  kv["workloads"] = "mcf";
  return kv;
}

std::vector<CampaignPoint> points_of(
    const std::map<std::string, std::string>& kv) {
  std::string error;
  const auto spec = CampaignSpec::from_kv(kv, &error);
  EXPECT_TRUE(spec) << error;
  return expand(*spec);
}

std::string fresh_dir(const char* name) {
  const auto dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::string> flag_argv(
    const std::string& bin, const std::map<std::string, std::string>& kv,
    std::vector<std::string> extra) {
  std::vector<std::string> argv = {bin};
  for (const auto& [k, v] : kv) argv.push_back("--" + k + "=" + v);
  for (auto& f : extra) argv.push_back(std::move(f));
  return argv;
}

common::ExitStatus run_to_exit(const std::vector<std::string>& argv,
                               const std::string& log) {
  std::string error;
  auto child = common::Child::spawn(argv, log, &error);
  EXPECT_TRUE(child) << error;
  if (!child) return {};
  return child->wait();
}

// Clean single-process reference run (the byte-identity yardstick).
std::string reference_csv(const std::map<std::string, std::string>& kv,
                          const char* name) {
  const auto csv = temp_path(name);
  const auto status = run_to_exit(
      flag_argv(REAP_CAMPAIGN_BIN, kv,
                {"--threads=2", "--csv=" + csv, "--baseline=none",
                 "--quiet"}),
      "");
  EXPECT_TRUE(status.success()) << status.describe();
  return csv;
}

std::vector<std::string> lines_of(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// `full` minus the rows whose leading `index` cell is in `dropped`.
std::vector<std::string> without_indices(
    const std::vector<std::string>& full,
    const std::vector<std::uint64_t>& dropped) {
  std::vector<std::string> kept;
  for (const auto& line : full) {
    bool drop = false;
    for (const auto idx : dropped)
      drop = drop || line.rfind(std::to_string(idx) + ",", 0) == 0;
    if (!drop) kept.push_back(line);
  }
  return kept;
}

DispatchOptions chaos_opts(const std::string& work_dir) {
  DispatchOptions opts;
  opts.campaign_binary = REAP_CAMPAIGN_BIN;
  opts.work_dir = work_dir;
  opts.workers = 2;
  opts.max_attempts = 2;
  opts.poll_interval = std::chrono::milliseconds(5);
  opts.backoff_base = std::chrono::milliseconds(1);
  return opts;
}

// A grid point whose worker crashes every time it is attempted is
// bisected down to, quarantined (sidecar + result), and every other row
// is still delivered -- byte-identical to a clean run minus that row.
// A re-dispatch over the same work dir honors the sidecar instead of
// re-poisoning itself.
TEST(Chaos, PoisonedPointIsQuarantinedAndTheRestDelivered) {
  const auto kv = grid8("chaos-poison");
  const auto ref = lines_of(reference_csv(kv, "chaos_poison_ref.csv"));
  const auto points = points_of(kv);
  ASSERT_EQ(points.size(), 8u);
  // Index 3: lands in shard 1 of 2, *not* first in its shard, so the
  // first attempt makes progress before dying -- the general case.
  const auto& poison = points[3];

  auto opts = chaos_opts(fresh_dir("chaos_poison"));
  opts.jobs = 2;
  std::vector<DispatchEvent> events;
  opts.on_event = [&events](const DispatchEvent& e) { events.push_back(e); };

  DispatchResult result;
  {
    EnvFault fault("runner.point:crash:*:key=" + poison.key);
    result = Dispatcher(kv, opts).run();
  }
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::quarantined);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].key, poison.key);
  EXPECT_EQ(result.quarantined[0].index, poison.index);
  EXPECT_EQ(result.quarantined[0].shard, 1u);
  EXPECT_GE(result.restarts, 1u);

  // One quarantine event, naming the point exactly as the sidecar's one
  // line does.
  const auto quarantines = events_of(events, Kind::quarantine);
  ASSERT_EQ(quarantines.size(), 1u);
  const auto& q = quarantines[0];
  EXPECT_EQ(q.key, poison.key);
  EXPECT_EQ(q.index, poison.index);
  EXPECT_EQ(q.shard, 1u);
  const auto sidecar = lines_of(opts.work_dir + "/quarantine.jsonl");
  ASSERT_EQ(sidecar.size(), 1u);
  const auto fields = common::parse_jsonl_line(sidecar[0]);
  ASSERT_TRUE(fields) << sidecar[0];
  std::map<std::string, std::string> line(fields->begin(), fields->end());
  EXPECT_EQ(line["key"], q.key);
  EXPECT_EQ(line["index"], std::to_string(q.index));
  EXPECT_EQ(line["shard"], std::to_string(q.shard));
  EXPECT_FALSE(line["reason"].empty()) << sidecar[0];

  // Merged output = clean run minus exactly the quarantined row.
  std::string error;
  const auto merged = merge_dispatch_journals(result.journal_paths(), &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_EQ(merged->rows.size(), 7u);
  const auto csv = temp_path("chaos_poison_merged.csv");
  {
    CsvResultSink sink(csv);
    for (const auto& row : merged->rows) sink.add_cells(row);
  }
  EXPECT_EQ(lines_of(csv), without_indices(ref, {poison.index}));

  // Re-dispatch, fault disarmed: the sidecar keeps the point quarantined
  // (nothing re-runs it) and the outcome is still `quarantined`.
  const auto rerun = Dispatcher(kv, opts).run();
  ASSERT_TRUE(rerun.ok) << rerun.error;
  EXPECT_EQ(rerun.status, DispatchStatus::quarantined);
  ASSERT_EQ(rerun.quarantined.size(), 1u);
  EXPECT_EQ(rerun.quarantined[0].key, poison.key);
  EXPECT_EQ(rerun.quarantined[0].index, poison.index);
  EXPECT_EQ(rerun.quarantined[0].shard, 1u);
}

// The supervisor expands the grid only when the quarantine machinery asks
// for it. A sidecar already in the work dir is such a case: a line naming
// only a key and a reason gets its index and shard from the grid, the
// point is skipped, and the rest is delivered as a clean run minus that
// row.
TEST(Chaos, QuarantineSidecarPresentAtStartGetsIndexAndShardFromTheGrid) {
  const auto kv = grid8("chaos-sidecar");
  const auto ref = lines_of(reference_csv(kv, "chaos_sidecar_ref.csv"));
  const auto points = points_of(kv);
  const auto& poison = points[5];  // shard 2 of 3
  auto opts = chaos_opts(fresh_dir("chaos_sidecar"));
  opts.jobs = 3;
  std::filesystem::create_directories(opts.work_dir);
  std::ofstream(opts.work_dir + "/quarantine.jsonl")
      << "{\"key\":\"" << poison.key
      << "\",\"reason\":\"pinned by an earlier run\"}\n";

  const auto result = Dispatcher(kv, opts).run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::quarantined);
  EXPECT_EQ(result.restarts, 0u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].key, poison.key);
  EXPECT_EQ(result.quarantined[0].index, 5u);
  EXPECT_EQ(result.quarantined[0].shard, 2u);
  EXPECT_EQ(result.quarantined[0].reason, "pinned by an earlier run");

  std::string error;
  const auto merged = merge_dispatch(result.shards, &error);
  ASSERT_TRUE(merged) << error;
  const auto csv = temp_path("chaos_sidecar_merged.csv");
  {
    CsvResultSink sink(csv);
    for (const auto& row : merged->rows) sink.add_cells(row);
  }
  EXPECT_EQ(lines_of(csv), without_indices(ref, {poison.index}));
}

// A worker wedged forever on one point journals nothing; the watchdog
// declares the stall, SIGTERMs it (which a wedged worker ignores),
// SIGKILLs it after the grace period, and the ordinary retry/bisect
// machinery then pins and quarantines the hanging point.
TEST(Chaos, HangingWorkerIsCaughtByTheWatchdogAndItsPointQuarantined) {
  const auto kv = grid4("chaos-hang");
  const auto points = points_of(kv);
  ASSERT_EQ(points.size(), 4u);
  const auto& poison = points[0];  // first in its (only) shard

  auto opts = chaos_opts(fresh_dir("chaos_hang"));
  opts.jobs = 1;
  opts.stall_timeout = std::chrono::milliseconds(300);
  opts.kill_grace = std::chrono::milliseconds(150);
  std::vector<DispatchEvent> events;
  opts.on_event = [&events](const DispatchEvent& e) { events.push_back(e); };

  DispatchResult result;
  {
    EnvFault fault("runner.point:hang:*:key=" + poison.key);
    result = Dispatcher(kv, opts).run();
  }
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::quarantined);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].key, poison.key);
  EXPECT_GE(result.stalls, 1u);
  const auto stalls = events_of(events, Kind::stall);
  EXPECT_EQ(stalls.size(), result.stalls);
  for (const auto& e : stalls) EXPECT_EQ(e.shard, 0u);
  // A stalled worker is killed: each stall is followed by that
  // attempt's failed exit.
  for (const auto& stall : stalls) {
    bool exited = false;
    for (const auto& e : events_of(events, Kind::worker_exit))
      exited = exited || (e.attempt == stall.attempt && !e.ok);
    EXPECT_TRUE(exited) << "attempt " << stall.attempt;
  }

  // The three healthy rows were all delivered.
  std::string error;
  const auto merged = merge_dispatch_journals(result.journal_paths(), &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_EQ(merged->rows.size(), 3u);
}

// ENOSPC on the third journal append: the worker stops claiming rows,
// exits with the distinct journal-I/O code, and the journal holds
// exactly the rows that were durable. --resume finishes the run and the
// final CSV is byte-identical to an unfaulted one.
TEST(Chaos, JournalEnospcStopsCleanlyAndResumeCompletes) {
  const auto kv = grid4("chaos-enospc");
  const auto ref = reference_csv(kv, "chaos_enospc_ref.csv");
  const auto journal_path = temp_path("chaos_enospc.journal");
  std::filesystem::remove(journal_path);
  const auto log = temp_path("chaos_enospc.log");

  const auto status = run_to_exit(
      flag_argv(REAP_CAMPAIGN_BIN, kv,
                {"--journal=" + journal_path, "--threads=1",
                 "--baseline=none", "--quiet",
                 "--inject-fault=journal.write:enospc:3"}),
      log);
  ASSERT_TRUE(status.exited);
  EXPECT_EQ(status.code, kExitJournalIo);
  EXPECT_NE(file_bytes(log).find("journal append failed"),
            std::string::npos);

  std::string error;
  auto journal = read_journal(journal_path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_EQ(journal->rows.size(), 2u);  // rows 1-2 durable, 3rd was ENOSPC
  EXPECT_FALSE(journal->truncated_tail);
  EXPECT_TRUE(journal->corrupt.empty());

  const auto csv = temp_path("chaos_enospc_resumed.csv");
  const auto resumed = run_to_exit(
      flag_argv(REAP_CAMPAIGN_BIN, kv,
                {"--journal=" + journal_path, "--resume", "--threads=1",
                 "--csv=" + csv, "--baseline=none", "--quiet"}),
      log);
  EXPECT_TRUE(resumed.success()) << resumed.describe();
  EXPECT_EQ(file_bytes(ref), file_bytes(csv));
}

// A torn write (partial row + crash, as a power cut leaves it) exits
// with the injected-crash code; the reader classifies the fragment as a
// torn tail, --resume heals it, and nothing is lost or doubled.
TEST(Chaos, TornWriteCrashLeavesAHealableTail) {
  const auto kv = grid4("chaos-torn");
  const auto ref = reference_csv(kv, "chaos_torn_ref.csv");
  const auto journal_path = temp_path("chaos_torn.journal");
  std::filesystem::remove(journal_path);
  const auto log = temp_path("chaos_torn.log");

  const auto status = run_to_exit(
      flag_argv(REAP_CAMPAIGN_BIN, kv,
                {"--journal=" + journal_path, "--threads=1",
                 "--baseline=none", "--quiet",
                 "--inject-fault=journal.write:torn-write:2"}),
      log);
  ASSERT_TRUE(status.exited);
  EXPECT_EQ(status.code, common::fault::kCrashExit);

  std::string error;
  auto journal = read_journal(journal_path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_EQ(journal->rows.size(), 1u);
  EXPECT_TRUE(journal->truncated_tail);

  const auto csv = temp_path("chaos_torn_resumed.csv");
  const auto resumed = run_to_exit(
      flag_argv(REAP_CAMPAIGN_BIN, kv,
                {"--journal=" + journal_path, "--resume", "--threads=1",
                 "--csv=" + csv, "--baseline=none", "--quiet"}),
      log);
  EXPECT_TRUE(resumed.success()) << resumed.describe();
  EXPECT_NE(file_bytes(log).find("torn line"), std::string::npos);
  EXPECT_EQ(file_bytes(ref), file_bytes(csv));

  const auto healed = read_journal(journal_path, &error);
  ASSERT_TRUE(healed) << error;
  EXPECT_FALSE(healed->truncated_tail);
  EXPECT_EQ(healed->rows.size(), 4u);
}

// SIGTERM mid-run: the worker finishes the row in hand, flushes the
// journal at a row boundary (no torn tail by construction), and exits
// with the distinct interrupted code; --resume completes byte-identically.
// An injected `slow` fault holds the 5th point open for seconds so the
// signal deterministically lands mid-run.
TEST(Chaos, SigtermStopsAtARowBoundaryAndResumeIsByteIdentical) {
  const auto kv = grid8("chaos-sigterm");
  const auto ref = reference_csv(kv, "chaos_sigterm_ref.csv");
  const auto journal_path = temp_path("chaos_sigterm.journal");
  std::filesystem::remove(journal_path);
  const auto log = temp_path("chaos_sigterm.log");

  std::string error;
  auto child = common::Child::spawn(
      flag_argv(REAP_CAMPAIGN_BIN, kv,
                {"--journal=" + journal_path, "--threads=1",
                 "--baseline=none", "--quiet",
                 "--inject-fault=runner.point:slow:5:3000"}),
      log, &error);
  ASSERT_TRUE(child) << error;

  // Wait until 4 rows are durable; the worker is then inside the 5th
  // point's 3 s sleep -- a wide, deterministic window for the signal.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto journal = read_journal(journal_path);
    if (journal && journal->rows.size() >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  child->kill(SIGTERM);
  const auto status = child->wait();
  ASSERT_TRUE(status.exited) << status.describe();
  EXPECT_EQ(status.code, kExitInterrupted);
  EXPECT_NE(file_bytes(log).find("interrupted"), std::string::npos);

  auto journal = read_journal(journal_path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  EXPECT_TRUE(journal->corrupt.empty());
  // The row in hand was finished, later rows were never claimed.
  EXPECT_GE(journal->rows.size(), 5u);
  EXPECT_LT(journal->rows.size(), 8u);

  const auto csv = temp_path("chaos_sigterm_resumed.csv");
  const auto resumed = run_to_exit(
      flag_argv(REAP_CAMPAIGN_BIN, kv,
                {"--journal=" + journal_path, "--resume", "--threads=1",
                 "--csv=" + csv, "--baseline=none", "--quiet"}),
      log);
  EXPECT_TRUE(resumed.success()) << resumed.describe();
  EXPECT_EQ(file_bytes(ref), file_bytes(csv));
}

// The dispatch CLI's exit-code contract, quarantine leg: a poisoned
// point yields exit 3, the merged CSV is still written (minus exactly
// that row), and the sidecar names it.
TEST(Chaos, DispatchCliExitsQuarantinedAndStillWritesMergedOutput) {
  const auto kv = grid8("chaos-cli-q");
  const auto ref = lines_of(reference_csv(kv, "chaos_cliq_ref.csv"));
  const auto points = points_of(kv);
  const auto& poison = points[3];
  const auto dir = fresh_dir("chaos_cliq");
  const auto csv = temp_path("chaos_cliq.csv");
  const auto log = temp_path("chaos_cliq.log");

  common::ExitStatus status;
  {
    EnvFault fault("runner.point:crash:*:key=" + poison.key);
    status = run_to_exit(
        flag_argv(REAP_DISPATCH_BIN, kv,
                  {"--campaign-bin=" REAP_CAMPAIGN_BIN, "--work-dir=" + dir,
                   "--workers=2", "--jobs=2", "--max-attempts=2",
                   "--backoff-ms=1", "--csv=" + csv, "--baseline=none",
                   "--quiet"}),
        log);
  }
  ASSERT_TRUE(status.exited) << status.describe();
  EXPECT_EQ(status.code, kDispatchQuarantined);
  const auto output = file_bytes(log);
  EXPECT_NE(output.find("quarantined: " + poison.key), std::string::npos)
      << output;
  EXPECT_NE(file_bytes(dir + "/quarantine.jsonl").find(poison.key),
            std::string::npos);
  EXPECT_EQ(lines_of(csv), without_indices(ref, {poison.index}));
}

// The dispatch CLI's exit-code contract, abandoned and spec-mismatch
// legs: a worker that always dies without writing a journal => exit 4
// (nothing to bisect, no merged outputs); a work dir belonging to a
// different spec => exit 2.
TEST(Chaos, DispatchCliExitsAbandonedAndSpecMismatchDistinctly) {
  const auto kv = grid4("chaos-cli-codes");

  const auto abandoned = run_to_exit(
      flag_argv(REAP_DISPATCH_BIN, kv,
                {"--campaign-bin=/bin/false",
                 "--work-dir=" + fresh_dir("chaos_cli_abandon"),
                 "--workers=2", "--jobs=1", "--max-attempts=1",
                 "--backoff-ms=1", "--quiet"}),
      temp_path("chaos_cli_abandon.log"));
  ASSERT_TRUE(abandoned.exited) << abandoned.describe();
  EXPECT_EQ(abandoned.code, kDispatchAbandoned);

  const auto dir = fresh_dir("chaos_cli_mismatch");
  const auto ok = run_to_exit(
      flag_argv(REAP_DISPATCH_BIN, kv,
                {"--campaign-bin=" REAP_CAMPAIGN_BIN, "--work-dir=" + dir,
                 "--workers=2", "--jobs=2", "--baseline=none", "--quiet"}),
      temp_path("chaos_cli_ok.log"));
  ASSERT_TRUE(ok.exited) << ok.describe();
  EXPECT_EQ(ok.code, kDispatchOk);

  auto other = kv;
  other["seeds"] = "0,1,2";
  const auto log = temp_path("chaos_cli_mismatch.log");
  const auto mismatch = run_to_exit(
      flag_argv(REAP_DISPATCH_BIN, other,
                {"--campaign-bin=" REAP_CAMPAIGN_BIN, "--work-dir=" + dir,
                 "--workers=2", "--jobs=2", "--baseline=none", "--quiet"}),
      log);
  ASSERT_TRUE(mismatch.exited) << mismatch.describe();
  EXPECT_EQ(mismatch.code, kDispatchSpecMismatch);
  EXPECT_NE(file_bytes(log).find("different spec"), std::string::npos);
}

// An output that fails part-way: `fault` is armed on one CSV or JSONL
// target of each CLI in turn. Every run exits 1 naming the target, and an
// existing file at that path keeps its bytes, with no temporary left
// beside it.
void expect_each_cli_fails_its_output(const std::string& fault,
                                      const char* name) {
  const auto kv = grid4(name);
  const auto dir = fresh_dir(name);
  std::filesystem::create_directories(dir);
  const auto rows = dir + "/rows.journal";
  const auto log = dir + "/run.log";
  ASSERT_TRUE(run_to_exit(flag_argv(REAP_CAMPAIGN_BIN, kv,
                                    {"--journal=" + rows, "--quiet"}),
                          log)
                  .success());
  const std::string kept = "rows of an earlier run\n";
  for (const std::string ext : {"csv", "jsonl"}) {
    const auto target = dir + "/out." + ext;
    {
      std::ofstream(target) << kept;
    }
    const std::vector<std::vector<std::string>> runs = {
        flag_argv(REAP_CAMPAIGN_BIN, kv,
                  {"--" + ext + "=" + target, "--quiet"}),
        flag_argv(REAP_DISPATCH_BIN, kv,
                  {"--campaign-bin=" REAP_CAMPAIGN_BIN,
                   "--work-dir=" + dir + "/work", "--workers=2",
                   "--" + ext + "=" + target, "--quiet"}),
        {REAP_REPORT_BIN, rows, "--merged-" + ext + "=" + target},
    };
    for (const auto& argv : runs) {
      SCOPED_TRACE(argv[0] + " " + ext);
      common::ExitStatus status;
      {
        EnvFault armed(fault + ":key=out." + ext);
        status = run_to_exit(argv, log);
      }
      ASSERT_TRUE(status.exited) << status.describe();
      EXPECT_EQ(status.code, 1);
      EXPECT_NE(file_bytes(log).find("output: " + target), std::string::npos)
          << file_bytes(log);
      EXPECT_EQ(file_bytes(target), kept);
    }
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
}

// EIO on the third row of an output, after two rows have streamed.
TEST(Chaos, SinkWriteFaultFailsEachCliAndKeepsTheOldOutput) {
  expect_each_cli_fails_its_output("sink.write:eio:3", "chaos_sink_write");
}

// A failure at the final flush, after every row was accepted.
TEST(Chaos, SinkCloseFaultFailsEachCliAndKeepsTheOldOutput) {
  expect_each_cli_fails_its_output("sink.close:enospc", "chaos_sink_close");
}

}  // namespace
}  // namespace reap::campaign
