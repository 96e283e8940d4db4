// Dispatcher: automatic shard distribution over a pool of worker slots.
//
// A campaign is a durable, partitionable artifact (--shard, --journal,
// --resume); the dispatcher turns that into a one-command distributed
// run. It splits the grid into N shards and keeps K `reap_campaign
// --shard=i/N` workers busy until every shard's journal is complete (the
// supervisor plans from the grid's size; it expands the spec only when the
// quarantine machinery needs the points):
//
//   - a worker that crashes (or is killed) is restarted on the same
//     journal; --resume skips the rows that already landed, so no work
//     is lost and no row runs twice;
//   - a shard whose worker dies repeatedly is reassigned to a different
//     worker slot;
//   - the per-shard journals are live-tailed (JournalTailer) into one
//     aggregated rows-done count for a single progress line;
//   - on completion the shard journals merge through the report layer
//     into CSV/JSONL byte-identical to an un-sharded single-process run
//     (the same guarantee reap_report gives, pinned by
//     tests/campaign/test_dispatch.cpp and the CI dispatch smoke). A
//     shard one worker finished cleanly merges from the rows its tailer
//     already read (merge_dispatch); any other shard re-reads its journal.
//
// Because every shard journals into work_dir, the dispatcher itself is
// resumable: re-running it with the same spec and work_dir re-launches
// the workers, which skip every journaled row.
//
// Supervision goes beyond crash faults:
//
//   - a progress *watchdog* (stall_timeout): each worker's heartbeat is
//     its journal tailer offset; a worker whose journal stops growing
//     for too long is sent SIGTERM (graceful: it flushes and exits at a
//     row boundary), then SIGKILL after kill_grace, and restarts as an
//     ordinary failed attempt;
//   - *exponential backoff* between restarts of a shard that is failing
//     without progress, capped at 10 s, with deterministic jitter per
//     (shard, attempt) so a fleet of crashing workers does not restart
//     in lockstep (and test runs replay exactly);
//   - *point quarantine*: a shard that keeps dying without journaling a
//     new row has a poisoned point. Instead of abandoning the whole
//     shard, the dispatcher bisects -- relaunching with --skip-rows over
//     halves of the un-journaled keys -- until the poison is pinned to a
//     single point, records it in work_dir/quarantine.jsonl, and lets
//     the rest of the shard complete. A shard whose worker never wrote a
//     journal has nothing to bisect and is abandoned;
//   - *graceful degradation*: an abandoned shard does not abort the
//     dispatch; the other shards finish and the result reports the
//     worst condition seen (see DispatchStatus / exit_codes.hpp).
//
// WorkerTransport (transport.hpp) abstracts *where* workers run: the slot
// pool is the concatenation of every transport's slots, remote workers
// stream their journal rows into the local shard journals, and
// machine-level failures (lost connection, stalled stream, unreachable
// host) are counted per *host* -- a host that fails host_max_failures
// times in a row is lost (drained from the pool, its shards redistributed
// to the survivors), and a run that finished despite losing hosts reports
// DispatchStatus::host_lost.
//
// Everything the supervisor does or sees -- launches, exits, journal
// growth, stalls, quarantines, host incidents -- is reported through one
// callback, DispatchOptions::on_event, as a DispatchEvent.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reap/campaign/report.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/campaign/transport.hpp"

namespace reap::campaign {

// One thing the supervisor did or saw. Flat: each kind sets the fields
// listed with it and leaves the rest at their defaults.
struct DispatchEvent {
  enum class Kind {
    spawn,        // shard, attempt (0 = first try), slot, pid
    worker_exit,  // shard, attempt, ok, will_retry. `ok` means "exited 0
                  // with a complete shard journal"; on failure
                  // `will_retry` tells a restart from an abandoned shard
    rows,         // shard, rows: tailing saw the shard's journal grow to
                  // `rows` rows; done, total: rows journaled across the
                  // grid (monotone) and the full grid size
    stall,        // shard, attempt: the watchdog declared the worker
                  // stalled (before its SIGTERM)
    quarantine,   // shard, key, index: a point pinned as poisoned and
                  // recorded in work_dir/quarantine.jsonl
    host_lost,    // host, text (why): the host is drained from the pool
                  // (handshake failure or exhausted failure budget)
    host_note,    // host, text: a per-host warning worth one stderr line
                  // (e.g. a missing remote trace store)
  };
  Kind kind = Kind::spawn;
  std::size_t shard = 0;
  std::size_t attempt = 0;
  std::size_t slot = 0;
  long pid = 0;
  bool ok = false;
  bool will_retry = false;
  std::size_t rows = 0;
  std::size_t done = 0;
  std::size_t total = 0;
  std::string host;
  std::string key;
  std::uint64_t index = 0;
  std::string text;
};

struct DispatchOptions {
  // The reap_campaign binary each worker runs. Required.
  std::string campaign_binary;

  // Directory for the per-shard journals and worker logs. Required;
  // created if missing. Re-dispatching with the same dir (and spec)
  // resumes from whatever the journals already hold.
  std::string work_dir;

  // Worker process slots. 0 = hardware concurrency. Concurrency is
  // naturally bounded by pending shards (never more than one worker per
  // shard); slots beyond that stay idle as spares, which is what lets a
  // repeatedly-dying shard be reassigned off its old slot even when it
  // is the only shard left.
  std::size_t workers = 0;

  // Shard count N (workers run `--shard=i/N`). 0 = the effective worker
  // count. More jobs than workers queues shards and backfills idle slots.
  std::size_t jobs = 0;

  // --threads for each worker. The dispatcher's parallelism is
  // workers x worker_threads simulation threads.
  std::size_t worker_threads = 1;

  // Ignored: nothing reads it and workers are not passed it (each pass
  // generates its own op stream; see docs/campaign.md, "Trace replay and
  // sharding"). Kept for callers that still set it, as
  // reap_dispatch --trace-cache-mb does.
  std::size_t trace_cache_mb = 0;

  // --trace-dir for each worker (empty = off): workers mmap .reaptrace
  // store files from this directory instead of generating. Unlike the
  // per-process cache, the mapped pages are shared by every worker on the
  // machine, so fleet-wide replay costs one materialization, once, on
  // disk.
  std::string trace_dir;

  // A shard's failure budget: after this many *consecutive* failed
  // attempts that journal no new row, the shard is given up on --
  // quarantine-probed when it has a journal to bisect, abandoned
  // otherwise. Attempts that make progress reset the count: a worker
  // that crashes midway but lands rows is converging, not failing.
  std::size_t max_attempts = 3;

  // Supervisor poll cadence: child liveness + journal tailing.
  std::chrono::milliseconds poll_interval{50};

  // Progress watchdog. 0 = disabled. A worker whose journal offset is
  // unchanged for this long is presumed wedged: it gets SIGTERM (the
  // worker's graceful path flushes and exits at a row boundary), then
  // SIGKILL once kill_grace expires, and is retried like any crash.
  // Must comfortably exceed the slowest single experiment -- the journal
  // only grows at row boundaries, so a long compute looks idle.
  std::chrono::milliseconds stall_timeout{0};
  std::chrono::milliseconds kill_grace{2000};

  // Restart backoff for shards failing without progress: delay
  // min(backoff_base * 2^(n-1), 10 s) after the n-th consecutive
  // no-progress failure, plus deterministic jitter (up to half the
  // delay, derived from the shard and the attempt) so restarts
  // de-synchronize reproducibly.
  std::chrono::milliseconds backoff_base{100};

  // Abandon a shard rather than quarantine more than this many points:
  // a campaign shedding rows wholesale is broken, not poisoned.
  std::size_t max_quarantine = 4;

  // Where workers run. Empty = one LocalTransport over `campaign_binary`
  // with the planned worker count (today's behavior, byte-identical).
  // Non-empty (what --hosts builds) = the slot pool is the concatenation
  // of every transport's slots and `workers` is ignored.
  std::vector<std::shared_ptr<WorkerTransport>> transports;

  // A host's failure budget: this many *consecutive* machine-level
  // failures (lost/stalled stream, unreachable, failed remote launch)
  // and the host is declared lost -- its slots drain from the pool and
  // its shards redistribute. A worker that completes or lands rows over
  // an intact stream resets the count. Local transports are exempt:
  // losing the dispatcher's own machine is not a recoverable event.
  std::size_t host_max_failures = 3;

  // Everything the supervisor reports, in the order it happens (see
  // DispatchEvent). Called on the thread running Dispatcher::run. Unset =
  // no events are built.
  std::function<void(const DispatchEvent&)> on_event;
};

// How a dispatch ended, worst condition wins; exit_codes.hpp maps these
// onto the reap_dispatch exit-code contract.
enum class DispatchStatus {
  ok,             // every row ran
  error,          // configuration/environment failure (nothing useful ran)
  spec_mismatch,  // work dir belongs to a different spec or shard split
  quarantined,    // complete except for explicitly quarantined points
  abandoned,      // at least one shard was given up on
  host_lost,      // every row ran, but only by surviving lost host(s)
};

// One poisoned point: pinned by the quarantine bisect and recorded in
// work_dir/quarantine.jsonl (one JSON object per line, these fields).
struct QuarantinedPoint {
  std::string key;
  std::uint64_t index = 0;
  std::size_t shard = 0;
  std::string reason;
};

// Where one shard ended up.
struct ShardOutcome {
  std::size_t shard = 0;
  std::size_t attempts = 0;  // worker launches consumed
  bool completed = false;
  std::size_t rows = 0;  // journaled rows observed (== shard size if done)
  std::string journal_path;
  std::string log_path;
  // The journal's rows as load_rows would read them, kept from tailing
  // (JournalTailer::take_rows): set on a successful run for a shard that
  // completed in one attempt and whose journal the tailer read whole and
  // undamaged, unchanged since. merge_dispatch loads the others.
  std::optional<RowTable> table;
};

struct DispatchResult {
  // True when every non-quarantined row ran (status ok or quarantined):
  // "the merged outputs are worth writing".
  bool ok = false;
  DispatchStatus status = DispatchStatus::error;
  std::string error;  // set when !ok
  std::size_t points = 0;          // full grid size
  std::size_t restarts = 0;        // failed attempts that were retried
  std::size_t stalls = 0;          // watchdog interventions
  std::vector<ShardOutcome> shards;
  std::vector<QuarantinedPoint> quarantined;  // sidecar contents
  std::vector<std::string> lost_hosts;        // hosts declared lost, in order

  // The shard journal paths, for the merge step.
  std::vector<std::string> journal_paths() const;
};

// The resolved execution plan of a dispatch: slot-pool size and shard
// count for a grid of `n_points`, after scanning opts.work_dir (when it
// exists) for journals of a previous run -- their recorded shard split
// wins over opts.jobs/workers (shards are meaningless under a different
// N), and every readable journal's spec hash must match `spec` or the
// plan fails up front with the real reason instead of letting workers
// burn their attempts on 'cannot resume' exits. Shared by
// Dispatcher::run and the CLI's --dry-run so the printed plan cannot
// drift from the executed one.
struct DispatchPlan {
  std::size_t workers = 1;
  std::size_t n_shards = 1;
  bool adopted_split = false;  // shard count taken from existing journals
};
std::optional<DispatchPlan> plan_dispatch(const CampaignSpec& spec,
                                          std::size_t n_points,
                                          const DispatchOptions& opts,
                                          std::string* error = nullptr);

class Dispatcher {
 public:
  // `spec_kv` is the fully resolved key/value spec (spec_from_cli's
  // CliSpec::kv). The dispatcher parses it locally for the shard plan
  // and forwards it to every worker as --key=value flags, so supervisor
  // and workers parse the identical spec (and the workers' journal
  // spec-hash check would refuse any drift).
  Dispatcher(std::map<std::string, std::string> spec_kv,
             DispatchOptions opts);

  // Runs the campaign to completion (or failure). Never throws: spec
  // errors, spawn errors, and abandoned shards all surface as
  // DispatchResult{ok=false, error}.
  DispatchResult run();

 private:
  std::map<std::string, std::string> spec_kv_;
  DispatchOptions opts_;
};

// The merge step: loads every shard journal of a completed dispatch and
// merges them (report layer) into one index-ordered table -- cell-for-cell
// identical to what a single-process run writes. Returns nullopt and sets
// `error` on unreadable/incomplete journals.
std::optional<RowTable> merge_dispatch_journals(
    const std::vector<std::string>& journal_paths,
    std::string* error = nullptr);

// merge_dispatch_journals over the shards' journal paths, except that a
// shard that kept its rows (ShardOutcome::table) merges from them instead
// of re-reading its journal. Same table, same errors.
std::optional<RowTable> merge_dispatch(std::vector<ShardOutcome> shards,
                                       std::string* error = nullptr);

}  // namespace reap::campaign
