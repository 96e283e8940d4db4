// Dispatcher fault paths, driven against the real reap_campaign binary
// (REAP_CAMPAIGN_BIN, baked in by CMake): a healthy pool merges to output
// byte-identical to a single-process run; a worker killed mid-shard is
// restarted with --resume and changes nothing; a pre-existing torn
// journal resumes instead of re-running; a persistently dying worker gets
// its shard reassigned to another slot and then fails the dispatch with
// its log named; an exit-0 worker that journaled nothing counts as a
// failure, not a success. The DispatchEvents suite checks the event
// stream: on the kill-one-worker run, ordered attempts, monotone row
// counts and a final count that covers the grid; and rows first seen
// when their worker is reaped are reported too. Every merge here goes
// through merge_dispatch -- the rows the tailers kept, where they kept
// them -- and is checked equal to the merge that re-reads every journal;
// the DispatchMerge suite pins which shards keep their rows.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using testutil::events_of;
using testutil::file_bytes;
using testutil::temp_path;
using Kind = DispatchEvent::Kind;

// 2 workloads x 2 policies x 2 seeds = 8 points. `instructions` scales
// per-point runtime: ~20k runs in a few ms (fast-path tests), a few
// hundred k gives a kill window of many poll intervals.
std::map<std::string, std::string> spec_kv(std::uint64_t instructions) {
  return {{"name", "dispatch-test"},
          {"workloads", "mcf,h264ref"},
          {"policies", "conventional,reap"},
          {"seeds", "0,1"},
          {"instructions", std::to_string(instructions)},
          {"warmup", "2000"}};
}

// A fresh work dir per test so journals cannot leak across tests.
std::string fresh_dir(const char* name) {
  const auto dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// Single-process reference run of the same spec via the real binary.
std::string reference_csv(const std::map<std::string, std::string>& kv,
                          const char* name) {
  const auto csv = temp_path(name);
  std::vector<std::string> argv = {REAP_CAMPAIGN_BIN};
  for (const auto& [k, v] : kv) argv.push_back("--" + k + "=" + v);
  argv.push_back("--threads=2");
  argv.push_back("--csv=" + csv);
  argv.push_back("--baseline=none");
  argv.push_back("--quiet");
  auto child = common::Child::spawn(argv, "");
  EXPECT_TRUE(child);
  if (child) {
    EXPECT_TRUE(child->wait().success());
  }
  return csv;
}

DispatchOptions base_opts(const std::string& work_dir) {
  DispatchOptions opts;
  opts.campaign_binary = REAP_CAMPAIGN_BIN;
  opts.work_dir = work_dir;
  opts.workers = 2;
  opts.poll_interval = std::chrono::milliseconds(5);
  return opts;
}

// The merged CSV of a dispatch, as reap_dispatch writes it: from the rows
// the tailers kept where they kept them. The table must equal the merge
// that re-reads every journal.
std::string merged_csv_of(const DispatchResult& result, const char* name) {
  std::string error;
  const auto merged = merge_dispatch(result.shards, &error);
  EXPECT_TRUE(merged) << error;
  const auto reread = merge_dispatch_journals(result.journal_paths(), &error);
  EXPECT_TRUE(reread) << error;
  const auto path = temp_path(name);
  if (!merged || !reread) return path;
  EXPECT_TRUE(covers_all_indices(*merged));
  EXPECT_EQ(merged->header, reread->header);
  EXPECT_EQ(merged->rows, reread->rows);
  EXPECT_EQ(merged->expected_points, reread->expected_points);
  EXPECT_EQ(merged->truncated_tail, reread->truncated_tail);
  CsvResultSink csv(path);
  for (const auto& row : merged->rows) csv.add_cells(row);
  EXPECT_TRUE(csv.close());
  return path;
}

// Runs `kv` with `opts`, recording every event into `events`.
DispatchResult run_recorded(const std::map<std::string, std::string>& kv,
                            DispatchOptions opts,
                            std::vector<DispatchEvent>& events) {
  opts.on_event = [&events](const DispatchEvent& e) { events.push_back(e); };
  return Dispatcher(kv, opts).run();
}

// ~45 ms per point, 4 points per shard: the first row lands with most of
// the shard still to run, so the SIGKILL below is mid-shard by many poll
// intervals.
std::map<std::string, std::string> kill_spec_kv() { return spec_kv(600000); }

// Two workers; shard 1's first worker is SIGKILLed as soon as its first
// row is reported. Every event is recorded into `events`.
DispatchResult kill_one_worker_run(const char* dir, bool& killed,
                                   std::vector<DispatchEvent>& events) {
  auto opts = base_opts(fresh_dir(dir));
  std::map<std::size_t, long> pid_of_shard;
  std::map<std::size_t, std::size_t> attempt_of_shard;
  killed = false;
  opts.on_event = [&](const DispatchEvent& e) {
    events.push_back(e);
    if (e.kind == Kind::spawn) {
      pid_of_shard[e.shard] = e.pid;
      attempt_of_shard[e.shard] = e.attempt;
    }
    if (e.kind == Kind::rows && e.shard == 1 && e.rows >= 1 &&
        attempt_of_shard[1] == 0 && !killed) {
      killed = true;
      ::kill(static_cast<pid_t>(pid_of_shard[1]), SIGKILL);
    }
  };
  return Dispatcher(kill_spec_kv(), opts).run();
}

TEST(Dispatch, MergedOutputByteIdenticalToSingleProcess) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "dispatch_ref.csv");

  auto opts = base_opts(fresh_dir("dispatch_ok"));
  opts.jobs = 3;  // more shards than workers: exercises queue backfill
  std::vector<DispatchEvent> events;
  const auto result = run_recorded(kv, opts, events);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.points, 8u);
  EXPECT_EQ(result.restarts, 0u);
  const auto rows = events_of(events, Kind::rows);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back().done, 8u);
  EXPECT_EQ(rows.back().total, 8u);
  ASSERT_EQ(result.shards.size(), 3u);
  std::size_t shard_rows = 0;
  for (const auto& s : result.shards) {
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.attempts, 1u);
    shard_rows += s.rows;
  }
  EXPECT_EQ(shard_rows, 8u);

  const auto merged = merged_csv_of(result, "dispatch_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));
}

TEST(Dispatch, WorkerKilledMidShardResumesAndOutputUnchanged) {
  const auto ref = reference_csv(kill_spec_kv(), "dispatch_kill_ref.csv");
  bool killed = false;
  std::vector<DispatchEvent> events;
  const auto result = kill_one_worker_run("dispatch_kill", killed, events);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(killed);
  EXPECT_GE(result.restarts, 1u);
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_EQ(result.shards[1].attempts, 2u);
  EXPECT_TRUE(result.shards[1].completed);

  // The restarted worker resumed the journal rather than starting over:
  // its log records both the fresh start and the resume.
  const auto log = file_bytes(result.shards[1].log_path);
  EXPECT_NE(log.find("resuming:"), std::string::npos) << log;

  // The killed shard's journal is re-read at the merge; the other shard,
  // one clean attempt, merges from the rows its tailer kept.
  EXPECT_FALSE(result.shards[1].table);
  EXPECT_EQ(result.shards[0].attempts, 1u);
  EXPECT_TRUE(result.shards[0].table);
  const auto merged = merged_csv_of(result, "dispatch_kill_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));
}

TEST(Dispatch, ResumesPreexistingTornJournalWithoutRerunningRows) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "dispatch_resume_ref.csv");
  const auto dir = fresh_dir("dispatch_resume");

  // First dispatch completes and leaves full journals behind.
  const auto first = Dispatcher(kv, base_opts(dir)).run();
  ASSERT_TRUE(first.ok) << first.error;

  // Cut shard 0's journal down to header + one completed row + a torn
  // fragment -- the on-disk state a machine crash leaves.
  const auto journal_path = first.shards[0].journal_path;
  auto journal = read_journal(journal_path);
  ASSERT_TRUE(journal);
  ASSERT_GE(journal->rows.size(), 2u);
  journal->rows.resize(1);
  std::string error;
  ASSERT_TRUE(rewrite_journal(journal_path, *journal, &error)) << error;
  {
    std::ofstream torn(journal_path, std::ios::app);
    torn << "{\"key\":\"torn-mid-write";
  }
  std::filesystem::remove(first.shards[0].log_path);

  // Re-dispatch over the same work dir: shard 0 resumes past its one
  // journaled row, shard 1 finds its journal complete and runs nothing.
  const auto second = Dispatcher(kv, base_opts(dir)).run();
  ASSERT_TRUE(second.ok) << second.error;
  const auto log = file_bytes(second.shards[0].log_path);
  EXPECT_NE(log.find("resuming: 1 of"), std::string::npos) << log;
  EXPECT_NE(log.find("torn line"), std::string::npos) << log;

  // Whether shard 0's tailer saw the torn journal before the worker's
  // rewrite is a race; either way what it kept (if anything) is the
  // journal the worker left.
  if (second.shards[0].table) {
    const auto loaded = load_rows(journal_path, &error);
    ASSERT_TRUE(loaded) << error;
    EXPECT_EQ(second.shards[0].table->rows, loaded->rows);
  }
  const auto merged = merged_csv_of(second, "dispatch_resume_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));
}

TEST(Dispatch, RerunAdoptsTheJournalsShardSplitAndRefusesOtherSpecs) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "dispatch_adopt_ref.csv");
  const auto dir = fresh_dir("dispatch_adopt");

  auto opts = base_opts(dir);
  opts.jobs = 2;
  ASSERT_TRUE(Dispatcher(kv, opts).run().ok);

  // Re-running with a different shard plan must adopt the 2-way split
  // the journals record (shards are meaningless under a different N):
  // nothing re-runs, and the merge still matches.
  opts.jobs = 3;
  const auto rerun = Dispatcher(kv, opts).run();
  ASSERT_TRUE(rerun.ok) << rerun.error;
  EXPECT_EQ(rerun.shards.size(), 2u);
  EXPECT_EQ(rerun.restarts, 0u);
  const auto merged = merged_csv_of(rerun, "dispatch_adopt_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));

  // A different spec over the same work dir fails fast, before any
  // worker burns its attempts on 'cannot resume' exits.
  auto other = kv;
  other["seeds"] = "0,1,2";
  const auto refused = Dispatcher(other, opts).run();
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("different spec"), std::string::npos)
      << refused.error;
  EXPECT_NE(refused.error.find("--work-dir"), std::string::npos);

  // So does a *mixed* work dir where only a later shard's journal is
  // stale (the scan validates every journal, not just the first).
  const auto other_spec = CampaignSpec::from_kv(other);
  ASSERT_TRUE(other_spec);
  {
    JournalWriter stale(dir + "/shard_1.journal",
                        JournalHeader::for_run(*other_spec, 12, 1, 2));
  }
  const auto mixed = Dispatcher(kv, opts).run();
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("different spec"), std::string::npos)
      << mixed.error;
}

TEST(Dispatch, PersistentFailureReassignsSlotsThenFailsWithLog) {
  auto opts = base_opts(fresh_dir("dispatch_false"));
  opts.campaign_binary = "/bin/false";  // dies instantly, every time
  opts.jobs = 1;                        // both slots free for reassignment
  opts.max_attempts = 3;
  std::vector<DispatchEvent> events;
  const auto result = run_recorded(spec_kv(20000), opts, events);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("shard 0 failed 3/3"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find(result.shards[0].log_path), std::string::npos)
      << result.error;
  std::vector<std::size_t> slots;
  for (const auto& e : events_of(events, Kind::spawn)) slots.push_back(e.slot);
  std::vector<bool> retries;
  for (const auto& e : events_of(events, Kind::worker_exit)) {
    EXPECT_FALSE(e.ok);
    retries.push_back(e.will_retry);
  }
  EXPECT_EQ(retries.size(), 3u);
  EXPECT_EQ(result.restarts, 2u);
  // The first two failures retry; the last one abandons the shard.
  EXPECT_EQ(retries, (std::vector<bool>{true, true, false}));
  EXPECT_FALSE(result.shards[0].completed);
  // Reassignment: every retry ran on a different slot than the attempt
  // before it (both slots are free each time -- the shard must move).
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_NE(slots[1], slots[0]);
  EXPECT_NE(slots[2], slots[1]);
}

TEST(Dispatch, CleanExitWithoutJournalIsAFailureNotSilentDataLoss) {
  auto opts = base_opts(fresh_dir("dispatch_true"));
  opts.campaign_binary = "/bin/true";  // exit 0, journals nothing
  opts.jobs = 1;
  opts.max_attempts = 2;
  const auto result = Dispatcher(spec_kv(20000), opts).run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("exit 0"), std::string::npos) << result.error;
  EXPECT_EQ(result.shards[0].rows, 0u);
}

TEST(Dispatch, MissingWorkerBinaryIsAnImmediateError) {
  auto opts = base_opts(fresh_dir("dispatch_nobin"));
  opts.campaign_binary = "/no/such/reap_campaign";
  const auto result = Dispatcher(spec_kv(20000), opts).run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot exec"), std::string::npos)
      << result.error;
}

// The supervisor blocks on the workers' exit descriptors between ticks,
// so a shard that finishes is reaped at once, not a poll_interval later.
// With a tick far longer than the work, a run that slept out its ticks
// would take at least one; one that wakes on exit takes a fraction.
TEST(Dispatch, WakesWhenAWorkerExitsInsteadOfSleepingOutTheTick) {
  {
    auto probe = common::Child::spawn({"/bin/true"});
    ASSERT_TRUE(probe);
    if (probe->exit_fd() < 0) GTEST_SKIP() << "no pidfd_open on this kernel";
  }
  const auto kv = spec_kv(2000);
  auto opts = base_opts(fresh_dir("dispatch_wake"));
  opts.workers = 1;
  opts.poll_interval = std::chrono::seconds(20);
  const auto start = std::chrono::steady_clock::now();
  const auto result = Dispatcher(kv, opts).run();
  const auto took = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.shards.at(0).rows, 8u);
  EXPECT_LT(took, opts.poll_interval / 2);
}

// The event stream of the kill-one-worker run, end to end: shard 1's
// first attempt spawns, dies with a retry, and only then does its second
// attempt spawn; row counts never go back; every completed shard's last
// row count is its size; and the grid-wide count ends at the grid size.
TEST(DispatchEvents, KillOneWorkerRunReportsEveryStepInOrder) {
  bool killed = false;
  std::vector<DispatchEvent> events;
  const auto result = kill_one_worker_run("dispatch_events", killed, events);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(killed);

  const auto position = [&](const auto& match) {
    for (std::size_t i = 0; i < events.size(); ++i)
      if (match(events[i])) return i;
    return events.size();
  };
  const auto spawn0 = position([](const DispatchEvent& e) {
    return e.kind == Kind::spawn && e.shard == 1 && e.attempt == 0;
  });
  const auto died0 = position([](const DispatchEvent& e) {
    return e.kind == Kind::worker_exit && e.shard == 1 && e.attempt == 0;
  });
  const auto spawn1 = position([](const DispatchEvent& e) {
    return e.kind == Kind::spawn && e.shard == 1 && e.attempt == 1;
  });
  ASSERT_LT(spawn0, died0);
  ASSERT_LT(died0, spawn1);
  ASSERT_LT(spawn1, events.size());
  EXPECT_FALSE(events[died0].ok);
  EXPECT_TRUE(events[died0].will_retry);
  EXPECT_GT(events[spawn0].pid, 0);

  const auto rows = events_of(events, Kind::rows);
  ASSERT_FALSE(rows.empty());
  std::map<std::size_t, std::size_t> last_rows;
  std::size_t last_done = 0;
  for (const auto& e : rows) {
    EXPECT_GE(e.rows, last_rows[e.shard]) << "shard " << e.shard;
    EXPECT_GT(e.done, last_done);
    EXPECT_EQ(e.total, result.points);
    last_rows[e.shard] = e.rows;
    last_done = e.done;
  }
  for (const auto& s : result.shards) {
    ASSERT_TRUE(s.completed);
    EXPECT_EQ(last_rows[s.shard],
              shard_size(result.points, s.shard, result.shards.size()))
        << "shard " << s.shard;
  }
  EXPECT_EQ(rows.back().done, rows.back().total);

  // Each worker that ran to the end reported one clean exit.
  for (const auto& e : events_of(events, Kind::worker_exit))
    EXPECT_EQ(e.ok, !(e.shard == 1 && e.attempt == 0));
}

// Rows a blinded poll misses are reported by a later one. One worker runs
// the whole grid inside one long tick, and a one-shot tailer.read fault
// blinds poll 2 (polls: 1 right after the launch, then one every few ms
// between ticks, one when the tick wakes on the worker's exit, and the
// last at the reap), so the rows are seen by a later tail between ticks
// or by the reap's poll; either way every row is reported.
TEST(DispatchEvents, RowsSeenOnlyWhenTheWorkerIsReapedAreReported) {
  {
    auto probe = common::Child::spawn({"/bin/true"});
    ASSERT_TRUE(probe);
    if (probe->exit_fd() < 0) GTEST_SKIP() << "no pidfd_open on this kernel";
  }
  auto opts = base_opts(fresh_dir("dispatch_events_reap"));
  opts.workers = 1;
  opts.poll_interval = std::chrono::seconds(20);
  std::string error;
  ASSERT_TRUE(common::fault::arm("tailer.read:eio:2", &error)) << error;
  std::vector<DispatchEvent> events;
  const auto result = run_recorded(spec_kv(2000), opts, events);
  common::fault::disarm();
  ASSERT_TRUE(result.ok) << result.error;
  const auto rows = events_of(events, Kind::rows);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back().rows, 8u);
  EXPECT_EQ(rows.back().done, 8u);
}

// A clean dispatch merges from the rows its tailers kept -- no journal is
// read again -- and that merge is the journals' merge byte for byte. A
// re-dispatch over the completed work dir runs nothing and keeps the rows
// it re-reads while tailing the resumed workers.
TEST(DispatchMerge, CleanShardsMergeFromKeptRowsToTheJournalsBytes) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "dispatch_merge_ref.csv");
  auto opts = base_opts(fresh_dir("dispatch_merge_kept"));
  opts.jobs = 3;
  for (const char* name : {"dispatch_merge_first.csv",
                           "dispatch_merge_rerun.csv"}) {
    const auto result = Dispatcher(kv, opts).run();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.shards.size(), 3u);
    for (const auto& s : result.shards) {
      EXPECT_EQ(s.attempts, 1u) << name;
      ASSERT_TRUE(s.table) << name << ": shard " << s.shard;
      EXPECT_EQ(s.table->rows.size(), s.rows);
    }
    EXPECT_EQ(file_bytes(ref), file_bytes(merged_csv_of(result, name)));
  }
}

TEST(Dispatch, RejectsABadSpecBeforeLaunchingAnything) {
  auto kv = spec_kv(20000);
  kv["workloads"] = "no-such-workload";
  auto opts = base_opts(fresh_dir("dispatch_badspec"));
  std::vector<DispatchEvent> events;
  const auto result = run_recorded(kv, opts, events);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown workload no-such-workload"),
            std::string::npos)
      << result.error;
  EXPECT_TRUE(events_of(events, Kind::spawn).empty());
  EXPECT_FALSE(std::filesystem::exists(opts.work_dir));
}

}  // namespace
}  // namespace reap::campaign
