// Dispatcher: automatic shard distribution over a local worker pool.
//
// PR 3 made a campaign a durable, partitionable artifact (--shard,
// --journal, --resume); the dispatcher turns that into a one-command
// distributed run. It expands the spec, splits the grid into N shards,
// and keeps K `reap_campaign --shard=i/N --journal=... --resume` worker
// processes busy until every shard's journal is complete:
//
//   - a worker that crashes (or is killed) is restarted on the same
//     journal; --resume skips the rows that already landed, so no work
//     is lost and no row runs twice;
//   - a shard whose worker dies repeatedly is reassigned to a different
//     worker slot (and given up on, with its log path, after
//     max_attempts failures);
//   - the per-shard journals are live-tailed (JournalTailer) into one
//     aggregated rows-done count for a single progress line;
//   - on completion the shard journals merge through the report layer
//     into CSV/JSONL byte-identical to an un-sharded single-process run
//     (the same guarantee reap_report gives, pinned by
//     tests/campaign/test_dispatch.cpp and the CI dispatch smoke).
//
// Because every shard journals into work_dir, the dispatcher itself is
// resumable: re-running it with the same spec and work_dir re-launches
// the workers, which skip every journaled row.
//
// PR 6 extends supervision beyond crash faults:
//
//   - a progress *watchdog* (stall_timeout): each worker's heartbeat is
//     its journal tailer offset; a worker whose journal stops growing
//     for too long is sent SIGTERM (graceful: it flushes and exits at a
//     row boundary), then SIGKILL after kill_grace, and restarts as an
//     ordinary failed attempt;
//   - *exponential backoff* between restarts of a shard that is failing
//     without progress, with deterministic seeded jitter so a fleet of
//     crashing workers does not restart in lockstep (and test runs
//     replay exactly);
//   - *point quarantine*: a shard that keeps dying without journaling a
//     new row has a poisoned point. Instead of abandoning the whole
//     shard, the dispatcher bisects -- relaunching with --skip-rows over
//     halves of the un-journaled keys -- until the poison is pinned to a
//     single point, records it in work_dir/quarantine.jsonl, and lets
//     the rest of the shard complete. --fail-fast restores the old
//     abandon-at-max_attempts behavior;
//   - *graceful degradation*: an abandoned shard no longer aborts the
//     dispatch; the other shards finish and the result reports the
//     worst condition seen (see DispatchStatus / exit_codes.hpp).
//
// This PR abstracts *where* workers run behind WorkerTransport
// (transport.hpp): the slot pool is the concatenation of every
// transport's slots, remote workers stream their journal rows into the
// local shard journals, and machine-level failures (lost connection,
// stalled stream, unreachable host) are counted per *host* -- a host
// that fails host_max_failures times in a row is lost (drained from the
// pool, its shards redistributed to the survivors), and a run that
// finished despite losing hosts reports DispatchStatus::host_lost.
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

  // --trace-cache-mb for each worker (0 = not passed). Workers accept the
  // flag and ignore it: each pass generates its own op stream (see
  // docs/campaign.md, "Trace replay and sharding").
  std::size_t trace_cache_mb = 0;

  // --trace-dir for each worker (empty = off): workers mmap .reaptrace
  // store files from this directory instead of generating. Unlike the
  // per-process cache, the mapped pages are shared by every worker on the
  // machine, so fleet-wide replay costs one materialization, once, on
  // disk.
  std::string trace_dir;

  // A shard's failure budget: after this many *consecutive* failed
  // attempts that journal no new row, the shard is given up on --
  // quarantine-probed when possible (see fail_fast), abandoned
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
  // min(backoff_base * 2^(n-1), backoff_max) after the n-th consecutive
  // no-progress failure, plus deterministic jitter (up to half the
  // delay, derived from backoff_seed, the shard, and the attempt) so
  // restarts de-synchronize reproducibly.
  std::chrono::milliseconds backoff_base{100};
  std::chrono::milliseconds backoff_max{10000};
  std::uint64_t backoff_seed = 0;

  // When true, a shard that exhausts max_attempts is abandoned
  // immediately (pre-PR6 behavior). When false, the dispatcher first
  // bisects for a poisoned point and quarantines it, abandoning only
  // when no single point is to blame.
  bool fail_fast = false;

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

  // When non-empty, every remote transport's handshake must see the
  // worker binary answer --version with exactly this line; a mismatch
  // aborts the dispatch up front (fleet skew corrupts merges).
  std::string expected_worker_version;

  // Host-level observability. on_host_lost fires once when a host is
  // declared lost (handshake failure or exhausted failure budget);
  // on_host_note carries per-host warnings worth one stderr line (e.g.
  // a missing remote trace store).
  std::function<void(const std::string& host, const std::string& reason)>
      on_host_lost;
  std::function<void(const std::string& host, const std::string& note)>
      on_host_note;

  // Aggregated progress: (rows done across all shards, full grid size).
  // Called from the supervisor loop, monotone in `done`.
  std::function<void(std::size_t done, std::size_t total)> on_progress;

  // Observability / test seams. on_spawn fires for every worker launch
  // (attempt 0 is the first try); on_worker_exit fires when one ends --
  // `ok` means "exited 0 with a complete shard journal", and on failure
  // `will_retry` distinguishes a restart from the shard being abandoned;
  // on_shard_rows fires when tailing observes a shard's journal growing.
  std::function<void(std::size_t shard, std::size_t attempt,
                     std::size_t slot, long pid)>
      on_spawn;
  std::function<void(std::size_t shard, std::size_t attempt, bool ok,
                     bool will_retry)>
      on_worker_exit;
  std::function<void(std::size_t shard, std::size_t rows)> on_shard_rows;

  // Watchdog and quarantine observability. on_stall fires when a worker
  // is declared stalled (before the SIGTERM); on_quarantine fires when a
  // point is pinned as poisoned and recorded in the sidecar.
  std::function<void(std::size_t shard, std::size_t attempt)> on_stall;
  std::function<void(const std::string& key, std::uint64_t index,
                     std::size_t shard)>
      on_quarantine;
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
  // `spec_kv` is the fully resolved key/value spec (what spec_kv_from_cli
  // returns). The dispatcher expands it locally for the shard plan and
  // forwards it to every worker as --key=value flags, so supervisor and
  // workers parse the identical spec (and the workers' journal spec-hash
  // check would refuse any drift).
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

}  // namespace reap::campaign
