// reap_campaign: expand a campaign spec, run it across threads, emit rows
// and aggregates. Campaigns are durable, partitionable artifacts: a grid
// can be split across machines with --shard, every completed row is
// journaled the moment it finishes (--journal), and a killed run continues
// from its journal with --resume. Merging shard outputs and rendering
// figures offline is reap_report's job. See docs/campaign.md.
//
// Usage:
//   reap_campaign --spec=grid.spec [overrides]
//   reap_campaign --workloads=mcf,h264ref --policies=conventional,reap
//                 --ecc=1,2 --seeds=0,1 --threads=8 --csv=out.csv
//   reap_campaign --spec=grid.spec --shard=0/4 --journal=s0.journal
//   reap_campaign --spec=grid.spec --shard=0/4 --journal=s0.journal --resume
//   reap_campaign --config="workload=mcf policy=reap ..."   # one row re-run
//   reap_campaign --list-workloads | --list-policies
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "reap/campaign/campaign.hpp"
#include "reap/campaign/cli_usage.hpp"
#include "reap/campaign/exit_codes.hpp"
#include "reap/campaign/version.hpp"
#include "reap/common/cli.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/frame.hpp"
#include "reap/core/config_kv.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"
#include "reap/trace/trace_store.hpp"

using namespace reap;

namespace {

int usage(const char* argv0) {
  std::printf(campaign::kCampaignUsage, argv0);
  return 0;
}

// SIGTERM/SIGINT request a graceful stop: workers finish the row in
// hand, the journal flushes at a row boundary (it is flushed per row
// already, so there is no torn tail to heal), and the process exits
// kExitInterrupted so a supervisor can tell "asked to stop" from
// "crashed". The handler only sets a flag; the runner's should_stop
// does the rest.
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

double mb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void print_row(const campaign::CampaignPoint& pt,
               const core::ExperimentResult& r) {
  const auto header = campaign::result_header();
  const auto cells = campaign::result_cells(pt, r);
  for (std::size_t i = 0; i < header.size(); ++i)
    std::printf("%-20s %s\n", header[i].c_str(), cells[i].c_str());
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  if (args.has("help")) return usage(argv[0]);
  if (args.has("version")) {
    std::puts(campaign::build_info_line("reap_campaign").c_str());
    return 0;
  }

  // Fault injection (chaos testing): sites armed from the REAP_FAULT
  // environment (inherited by dispatched workers) and/or --inject-fault.
  {
    std::string ferr;
    if (!common::fault::arm_from_env(&ferr)) {
      std::fprintf(stderr, "bad %s: %s\n", common::fault::kEnvVar,
                   ferr.c_str());
      return 1;
    }
    if (args.has("inject-fault") &&
        !common::fault::arm(args.get_string("inject-fault", ""), &ferr)) {
      std::fprintf(stderr, "bad --inject-fault: %s\n", ferr.c_str());
      return 1;
    }
  }

  if (args.has("list-workloads")) {
    for (const auto& name : trace::spec2006_names()) std::puts(name.c_str());
    return 0;
  }
  if (args.has("list-policies")) {
    for (const auto kind : core::all_policies())
      std::puts(core::to_string(kind).c_str());
    return 0;
  }

  // Single-config mode: reproduce one emitted row.
  if (args.has("config")) {
    std::string error;
    const auto cfg = core::config_from_kv(args.get_string("config", ""), &error);
    if (!cfg) {
      std::fprintf(stderr, "bad --config: %s\n", error.c_str());
      return 1;
    }
    campaign::CampaignPoint pt;
    pt.config = *cfg;
    print_row(pt, core::run_experiment(*cfg));
    return 0;
  }

  // Assemble the spec key/value map: file first, flags override.
  std::string error;
  const auto kv = campaign::spec_kv_from_cli(args, &error);
  if (!kv) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (kv->empty()) return usage(argv[0]);

  const auto spec = campaign::CampaignSpec::from_kv(*kv, &error);
  if (!spec) {
    std::fprintf(stderr, "bad spec: %s\n", error.c_str());
    return 1;
  }

  std::vector<campaign::CampaignPoint> points;
  try {
    points = campaign::expand(*spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // Shard selection: deterministic, disjoint coverage by index stripe.
  std::size_t shard_index = 0, shard_count = 1;
  if (args.has("shard") &&
      !common::parse_shard(args.get_string("shard", ""), shard_index,
                           shard_count)) {
    std::fprintf(stderr, "bad --shard (want I/N with I < N): %s\n",
                 args.get_string("shard", "").c_str());
    return 1;
  }
  const bool sharded = shard_count > 1;
  const auto mine = campaign::shard(points, shard_index, shard_count);

  // Trace replay: 0 (default) = off, generate per point exactly as before.
  const std::uint64_t trace_cache_mb = args.get_u64("trace-cache-mb", 0);
  // Trace store: keys that resolve to a .reaptrace file in this directory
  // replay the mmapped file instead of generating (see docs/campaign.md,
  // "Trace store").
  const std::string trace_dir = args.get_string("trace-dir", "");

  if (args.has("dry-run")) {
    std::printf("campaign '%s': %zu points\n", spec->name.c_str(),
                points.size());
    if (sharded)
      std::printf("shard %zu/%zu: %zu points\n", shard_index, shard_count,
                  mine.size());
    // The trace-group plan, next to the shard plan: how many distinct
    // traces this (shard of the) grid replays and the estimated peak of
    // materialized bytes — with grouped scheduling, one trace per worker
    // thread is live at a time, plus whatever the cache retains.
    const auto plan = campaign::trace_plan(mine);
    campaign::RunnerOptions thread_probe;
    thread_probe.threads = static_cast<unsigned>(args.get_u64("threads", 0));
    const unsigned threads =
        campaign::CampaignRunner(thread_probe).effective_threads(mine.size());
    if (trace_cache_mb > 0)
      std::printf(
          "trace groups: %zu (largest ~%.1f MB; est. peak ~%.1f MB "
          "materialized on %u threads, cache cap %llu MB)\n",
          plan.groups, mb(plan.largest_bytes),
          mb(plan.largest_bytes * threads), threads,
          static_cast<unsigned long long>(trace_cache_mb));
    else
      std::printf(
          "trace groups: %zu (largest ~%.1f MB; replay off — enable with "
          "--trace-cache-mb=N)\n",
          plan.groups, mb(plan.largest_bytes));
    if (!trace_dir.empty()) {
      std::unordered_set<std::string> keys, found;
      for (const auto& pt : mine) {
        if (!keys.insert(pt.trace_key).second) continue;
        const auto path = std::filesystem::path(trace_dir) /
                          trace::trace_store_filename(pt.trace_key);
        if (std::filesystem::exists(path)) found.insert(pt.trace_key);
      }
      std::printf(
          "trace store: %zu of %zu trace keys resolve to files in %s "
          "(the rest generate)\n",
          found.size(), keys.size(), trace_dir.c_str());
    }
    for (const auto& pt : mine)
      std::printf("%4zu  %s\n", pt.index,
                  core::to_kv_string(pt.config).c_str());
    return 0;
  }

  // Resume: load the journal, verify it describes this exact run, and
  // collect the rows that are already durable.
  const std::string journal_path = args.get_string("journal", "");
  const bool resume = args.has("resume");
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal=PATH\n");
    return 1;
  }
  // --journal-stdout: mirror the journal over stdout as CRC32C-framed
  // records for a dispatcher tailing this worker across a connection.
  const bool journal_stdout = args.has("journal-stdout");
  if (journal_stdout && journal_path.empty()) {
    std::fprintf(stderr, "--journal-stdout requires --journal=PATH\n");
    return 1;
  }
  // A dispatcher that dies (or drops the connection) closes our stdout;
  // the default SIGPIPE would kill this worker too, losing the local
  // journal's value as the backup copy. Ignore it -- writes fail
  // silently, the disk journal stays authoritative on this side.
  if (journal_stdout) std::signal(SIGPIPE, SIG_IGN);
  std::vector<campaign::JournalRow> prior;
  bool append_journal = false;
  if (resume && std::filesystem::exists(journal_path)) {
    auto loaded = campaign::read_journal(journal_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "cannot resume: %s\n", error.c_str());
      return 1;
    }
    std::string why;
    if (!campaign::journal_compatible(loaded->header, *spec, points.size(),
                                      shard_index, shard_count, &why)) {
      std::fprintf(stderr, "cannot resume: %s\n", why.c_str());
      return 1;
    }
    if (loaded->truncated_tail)
      std::fprintf(stderr,
                   "note: journal ends in a torn line (killed mid-write); "
                   "that row will re-run\n");
    for (const auto& bad : loaded->corrupt)
      std::fprintf(stderr,
                   "note: journal line %zu is corrupt (%s); skipped, its "
                   "row will re-run\n",
                   bad.line_no, bad.reason.c_str());
    if (loaded->truncated_tail || !loaded->corrupt.empty()) {
      // Heal the journal before appending: new rows written after an
      // unterminated line would corrupt both, and re-serializing only
      // the parsed rows drops the corrupt ones for good.
      if (!campaign::rewrite_journal(journal_path, *loaded, &error)) {
        std::fprintf(stderr, "cannot resume: %s\n", error.c_str());
        return 1;
      }
    }
    prior = campaign::merge_journal_rows(std::move(loaded->rows), {});
    append_journal = true;
  } else if (resume) {
    std::fprintf(stderr, "note: no journal at %s; starting fresh\n",
                 journal_path.c_str());
  }

  // --skip-rows: keys excluded from this run (the dispatcher's
  // quarantine/bisect mechanism). A run is complete -- exit 0 -- when
  // every *non-skipped* row of its shard is journaled.
  std::unordered_set<std::string> skipped;
  if (args.has("skip-rows")) {
    const std::string list = args.get_string("skip-rows", "");
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const auto next = list.find(',', pos);
      const auto end = next == std::string::npos ? list.size() : next;
      if (end > pos) skipped.insert(list.substr(pos, end - pos));
      if (next == std::string::npos) break;
      pos = next + 1;
    }
  }

  std::unordered_set<std::string> completed;
  for (const auto& row : prior) completed.insert(row.key);
  std::vector<campaign::CampaignPoint> to_run;
  to_run.reserve(mine.size());
  for (const auto& pt : mine)
    if (!completed.count(pt.key) && !skipped.count(pt.key))
      to_run.push_back(pt);

  // Trace store resolution: map every distinct trace key of the rows about
  // to run to its .reaptrace file, opening and *fully* validating each one
  // (header and body CRC32C) before any output file is created — a corrupt
  // or too-short store file refuses the run with a prompt exit 1 and a
  // distinct reason, never wrong bytes discovered mid-run. A key with no
  // file falls back to in-process generation.
  std::unordered_map<std::string, trace::MaterializedTrace> mapped_traces;
  if (!trace_dir.empty()) {
    for (const auto& pt : to_run) {
      if (mapped_traces.count(pt.trace_key)) continue;
      const auto path = (std::filesystem::path(trace_dir) /
                         trace::trace_store_filename(pt.trace_key))
                            .string();
      if (!std::filesystem::exists(path)) continue;
      const auto mapped = trace::MappedTraceFile::open(path, &error);
      if (!mapped) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      if (mapped->info().trace_key != pt.trace_key) {
        std::fprintf(stderr,
                     "%s: trace_key mismatch (file records '%s', this run "
                     "wants '%s')\n",
                     path.c_str(), mapped->info().trace_key.c_str(),
                     pt.trace_key.c_str());
        return 1;
      }
      const std::uint64_t budget =
          pt.config.warmup_instructions + pt.config.instructions;
      if (mapped->info().instructions < budget) {
        std::fprintf(stderr,
                     "%s: trace covers %llu instructions, this run needs "
                     "%llu (warmup + instructions)\n",
                     path.c_str(),
                     static_cast<unsigned long long>(
                         mapped->info().instructions),
                     static_cast<unsigned long long>(budget));
        return 1;
      }
      mapped_traces.emplace(pt.trace_key, mapped->borrow(mapped));
    }
  }

  // Open sinks before running so an unwritable path fails fast instead of
  // after the whole grid has been simulated.
  campaign::MultiSink sinks;
  std::unique_ptr<campaign::CsvResultSink> csv;
  std::unique_ptr<campaign::JsonlResultSink> jsonl;
  if (args.has("csv")) {
    csv = std::make_unique<campaign::CsvResultSink>(
        args.get_string("csv", ""));
    if (!csv->ok()) {
      std::fprintf(stderr, "cannot write csv output: %s\n",
                   args.get_string("csv", "").c_str());
      return 1;
    }
    sinks.attach(csv.get());
  }
  if (args.has("jsonl")) {
    jsonl = std::make_unique<campaign::JsonlResultSink>(
        args.get_string("jsonl", ""));
    if (!jsonl->ok()) {
      std::fprintf(stderr, "cannot write jsonl output: %s\n",
                   args.get_string("jsonl", "").c_str());
      return 1;
    }
    sinks.attach(jsonl.get());
  }

  std::optional<campaign::JournalWriter> journal;
  if (!journal_path.empty()) {
    if (append_journal) {
      journal.emplace(journal_path);
    } else {
      journal.emplace(journal_path,
                      campaign::JournalHeader::for_run(
                          *spec, points.size(), shard_index, shard_count));
    }
    if (!journal->ok()) {
      std::fprintf(stderr, "cannot write journal: %s\n",
                   journal_path.c_str());
      return 1;
    }
    if (journal_stdout)
      journal->set_mirror([](const std::string& line) {
        const auto framed = common::frame_line(line);
        std::fwrite(framed.data(), 1, framed.size(), stdout);
        std::fflush(stdout);
      });
  }

  // Streaming pipeline: rows are journaled (and buffered for the merge)
  // in completion order the moment each experiment finishes; the runner's
  // mutex serializes the callback.
  std::vector<campaign::JournalRow> fresh;
  fresh.reserve(to_run.size());
  campaign::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(args.get_u64("threads", 0));
  opts.on_result = [&](const campaign::CampaignPoint& pt,
                       const core::ExperimentResult& r) {
    auto cells = campaign::result_cells(pt, r);
    if (journal) journal->add(pt.key, cells);
    fresh.push_back({pt.key, pt.index, std::move(cells)});
  };
  // Stop claiming points on SIGTERM/SIGINT or after a journal append
  // fails (EIO/ENOSPC): either way the run ends cleanly at a row
  // boundary and --resume continues from the journal.
  opts.should_stop = [&journal] {
    return g_signal != 0 || (journal && journal->io_errno() != 0);
  };
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  campaign::ProgressReporter progress;
  const bool quiet = args.has("quiet");
  if (!quiet)
    opts.on_progress = [&progress](std::size_t d, std::size_t t) {
      progress(d, t);
    };

  // Trace replay: every pass of a trace group already shares one op
  // stream, so the cache pays off when a key spans several passes
  // (least-error-rate replacement splits a group into one pass per point)
  // and for store files. The first pass of a key materializes it; every
  // later pass replays the byte-identical stream from the cache instead of
  // regenerating it. Keys with a store file replay the mmapped arena
  // instead: borrowed traces account zero bytes, so the cache retains them
  // for free even at cap 0 (--trace-dir alone, no --trace-cache-mb).
  std::optional<campaign::TraceCache> trace_cache;
  if (trace_cache_mb > 0 || !mapped_traces.empty()) {
    trace_cache.emplace(static_cast<std::size_t>(trace_cache_mb) << 20);
    opts.run_pass_fn = [&cache = *trace_cache, &mapped_traces,
                        trace_cache_mb](const campaign::Pass& pass) {
      const campaign::CampaignPoint& pt = *pass.front();
      const auto it = mapped_traces.find(pt.trace_key);
      if (it == mapped_traces.end() && trace_cache_mb == 0) {
        // --trace-dir without a cache: keys with no store file generate,
        // exactly the default path.
        return campaign::run_pass(pass);
      }
      const auto trace = cache.acquire(pt.trace_key, [&] {
        if (it != mapped_traces.end()) return it->second;  // shares the mmap
        const std::uint64_t budget =
            pt.config.warmup_instructions + pt.config.instructions;
        trace::WorkloadTraceSource gen(pt.config.workload);
        return trace::MaterializedTrace::materialize(gen, budget);
      });
      trace::ReplayTraceSource source(*trace);
      return campaign::run_pass(pass, &source);
    };
    if (!quiet) progress.watch_trace_cache(&trace_cache->stats());
  }

  campaign::CampaignRunner runner(opts);
  std::printf("campaign '%s': %zu points on %u threads\n", spec->name.c_str(),
              points.size(), runner.effective_threads(to_run.size()));
  if (sharded)
    std::printf("shard %zu/%zu: %zu points\n", shard_index, shard_count,
                mine.size());
  if (!prior.empty())
    std::printf("resuming: %zu of %zu rows already journaled, %zu to run\n",
                prior.size(), mine.size(), to_run.size());
  const auto results = runner.run(to_run);

  // An aborted run stops here: the journal holds every completed row
  // (flushed per row, no torn tail), the in-memory results are partial,
  // and the distinct exit codes tell a supervisor which case this is.
  if (journal && journal->io_errno() != 0) {
    std::fprintf(stderr,
                 "journal append failed (%s); stopped at a row boundary, "
                 "re-run with --resume to continue\n",
                 std::strerror(journal->io_errno()));
    return campaign::kExitJournalIo;
  }
  if (g_signal != 0) {
    std::fprintf(stderr,
                 "interrupted (signal %d); journal is complete through the "
                 "last finished row, re-run with --resume to continue\n",
                 static_cast<int>(g_signal));
    return campaign::kExitInterrupted;
  }

  // Merge step: journaled + fresh rows, deduplicated and re-ordered by
  // grid index, stream through the sinks -- byte-identical to an
  // uninterrupted single-process run over the same rows.
  const auto merged =
      campaign::merge_journal_rows(std::move(prior), std::move(fresh));
  campaign::emit_rows(merged, sinks);

  // Aggregates.
  const std::string baseline_name =
      args.get_string("baseline", "conventional");
  if (baseline_name != "none" && sharded) {
    std::printf(
        "\n(shard %zu/%zu is a partial grid; merge the shard outputs with "
        "reap_report for aggregates)\n",
        shard_index, shard_count);
  } else if (baseline_name != "none") {
    const auto baseline = core::policy_from_string(baseline_name);
    if (!baseline) {
      std::fprintf(stderr, "unknown --baseline policy: %s\n",
                   baseline_name.c_str());
      return 1;
    }
    std::optional<campaign::CampaignAggregates> agg;
    if (to_run.size() == points.size()) {
      // Fresh full run: every result is in memory, indexed by grid index.
      agg = campaign::aggregate(*spec, points, results, *baseline);
    } else {
      // Resumed run: journaled rows stand in for re-running; the offline
      // row aggregation reproduces the in-memory numbers exactly.
      campaign::RowTable table;
      table.header = campaign::result_header();
      table.expected_points = points.size();
      for (const auto& row : merged) table.rows.push_back(row.cells);
      if (campaign::covers_all_indices(table)) {
        agg = campaign::aggregate_rows(table, *baseline, &error);
        if (!agg) std::printf("\n(no aggregates: %s)\n", error.c_str());
      } else {
        std::printf("\n(journal covers a partial grid; no aggregates)\n");
      }
    }
    if (agg) {
      std::printf("\n%s", agg->render().c_str());
    } else if (to_run.size() == points.size()) {
      std::printf("\n(baseline %s not in the grid; no aggregates)\n",
                  baseline_name.c_str());
    }
  }

  common::warn_unused(args);
  return 0;
}
