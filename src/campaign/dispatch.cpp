#include "reap/campaign/dispatch.hpp"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "reap/campaign/journal.hpp"
#include "reap/campaign/seed.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

// Supervisor-side view of one shard.
struct ShardState {
  std::size_t expected = 0;  // points in this shard
  std::size_t attempts = 0;
  // Consecutive failed attempts that journaled no new row. Progress
  // resets it: a worker that crashes midway but lands rows is
  // converging, not failing. This -- not `attempts` -- is what exhausts
  // the max_attempts budget and what drives the backoff exponent.
  std::size_t no_progress = 0;
  std::size_t last_slot = kNoSlot;  // slot of the most recent attempt
  bool completed = false;
  bool abandoned = false;
  std::string journal_path;
  std::string log_path;
  std::optional<JournalTailer> tailer;
  std::unordered_set<std::string> done_keys;     // journaled row keys
  std::unordered_set<std::string> quarantined;   // poisoned keys (this shard)
  // Quarantine bisect state. `suspects` is the candidate set the poison
  // is known to live in (index order); each probe runs the first half
  // (`probe_target`) and skips the rest, narrowing by outcome.
  bool probing = false;
  std::vector<std::string> suspects;
  std::vector<std::string> probe_target;
  Clock::time_point eligible_at{};  // backoff gate for the next launch
};

// One busy worker slot.
struct Slot {
  std::unique_ptr<WorkerHandle> worker;
  std::size_t shard = 0;
  std::size_t transport = 0;  // index into the transports vector
  std::size_t attempt = 0;
  std::size_t rows_at_spawn = 0;
  // Watchdog heartbeat: the shard journal's tailer offset. A worker
  // whose offset stops moving has stopped completing rows.
  std::uint64_t last_offset = 0;
  Clock::time_point last_change{};
  std::optional<Clock::time_point> term_at;  // SIGTERM sent, grace running
};

// Sleeps out one supervisor tick, but returns as soon as a worker exits
// (its pidfd turns readable), so a finished run is reaped at once rather
// than up to a tick later. Remote workers' stream bytes are pumped as
// they arrive without ending the wait: tailing, the watchdog and backoff
// keep the poll_interval cadence. A worker without an exit descriptor
// (no pidfd_open) is noticed at the end of the tick, as before.
void wait_for_workers(std::vector<std::optional<Slot>>& slots,
                      std::chrono::milliseconds tick) {
  const auto deadline = Clock::now() + tick;
  std::vector<pollfd> fds;
  std::vector<WorkerHandle*> streams;  // per fd; null for an exit fd
  for (;;) {
    fds.clear();
    streams.clear();
    for (auto& slot : slots) {
      if (!slot) continue;
      if (const int fd = slot->worker->exit_fd(); fd >= 0) {
        fds.push_back({fd, POLLIN, 0});
        streams.push_back(nullptr);
      }
      if (const int fd = slot->worker->stream_fd(); fd >= 0) {
        fds.push_back({fd, POLLIN, 0});
        streams.push_back(slot->worker.get());
      }
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return;
    const int n = ::poll(fds.data(), fds.size(), static_cast<int>(left.count()));
    if (n == 0) return;  // the tick is over
    if (n < 0) {
      if (errno == EINTR) continue;
      std::this_thread::sleep_until(deadline);
      return;
    }
    bool exited = false;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (streams[i])
        streams[i]->pump();
      else
        exited = true;
    }
    if (exited) return;
  }
}

// Per-host (per-transport) failure accounting; see
// DispatchOptions::host_max_failures.
struct HostState {
  std::size_t fails = 0;  // consecutive machine-level failures
  bool dead = false;
};

}  // namespace

std::vector<std::string> DispatchResult::journal_paths() const {
  std::vector<std::string> paths;
  paths.reserve(shards.size());
  for (const auto& s : shards) paths.push_back(s.journal_path);
  return paths;
}

Dispatcher::Dispatcher(std::map<std::string, std::string> spec_kv,
                       DispatchOptions opts)
    : spec_kv_(std::move(spec_kv)), opts_(std::move(opts)) {}

std::optional<DispatchPlan> plan_dispatch(const CampaignSpec& spec,
                                          std::size_t n_points,
                                          const DispatchOptions& opts,
                                          std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return std::nullopt;
  };
  DispatchPlan plan;
  if (!opts.transports.empty()) {
    // The slot pool is whatever the transports bring; --workers is a
    // local-pool knob and does not apply.
    plan.workers = 0;
    for (const auto& t : opts.transports) plan.workers += t->slots();
    plan.workers = std::max<std::size_t>(plan.workers, 1);
  } else {
    plan.workers = opts.workers != 0
                       ? opts.workers
                       : std::max(1u, std::thread::hardware_concurrency());
  }
  // More shards than points would leave empty shards whose workers have
  // nothing to do; clamp the shard count to the grid. The slot pool is
  // NOT clamped to the shard count: a spare slot is what lets a
  // repeatedly-dying shard be reassigned away from its old slot even
  // when it is the only shard left.
  plan.n_shards = opts.jobs != 0 ? opts.jobs
                                 : std::min(plan.workers, n_points);
  plan.n_shards = std::max<std::size_t>(std::min(plan.n_shards, n_points), 1);

  // A work dir that already holds journals defines the shard split: the
  // resume contract is "re-run with the same spec and work dir", not
  // "...and the same worker count". Every readable journal must belong
  // to this spec and agree on the split.
  std::optional<std::size_t> adopted;
  std::size_t scan_end = plan.n_shards;
  for (std::size_t i = 0; i < scan_end; ++i) {
    const auto path =
        opts.work_dir + "/shard_" + std::to_string(i) + ".journal";
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) continue;
    const auto prior = read_journal_header(path);
    if (!prior) continue;  // unreadable/corrupt: the worker will complain
    if (prior->spec_hash != spec_hash(spec))
      return fail("work dir " + opts.work_dir +
                  " holds journals for a different spec (" + path +
                  "); use a fresh --work-dir");
    const auto split = std::max<std::size_t>(prior->shard_count, 1);
    if (adopted && *adopted != split)
      return fail("work dir " + opts.work_dir +
                  " holds journals from two different shard splits (" +
                  std::to_string(*adopted) + " and " +
                  std::to_string(split) + "-way); use a fresh --work-dir");
    adopted = split;
    scan_end = std::max(scan_end, split);  // check the whole old range too
  }
  if (adopted) {
    plan.adopted_split = plan.n_shards != *adopted;
    plan.n_shards = *adopted;
  }
  return plan;
}

DispatchResult Dispatcher::run() {
  DispatchResult result;
  const auto fail = [&result](std::string msg,
                              DispatchStatus st = DispatchStatus::error) {
    result.ok = false;
    result.status = st;
    result.error = std::move(msg);
    return result;
  };

  if (opts_.campaign_binary.empty() && opts_.transports.empty())
    return fail("dispatch: no campaign binary configured");
  if (opts_.work_dir.empty()) return fail("dispatch: no work dir configured");
  if (opts_.max_attempts == 0)
    return fail("dispatch: max_attempts must be >= 1");

  std::string error;
  const auto spec = CampaignSpec::from_kv(spec_kv_, &error);
  if (!spec) return fail("bad spec: " + error);
  std::vector<CampaignPoint> points;
  try {
    points = expand(*spec);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  result.points = points.size();

  // plan_dispatch only fails when the work dir belongs to a different
  // spec or shard split -- the spec_mismatch exit condition.
  const auto plan = plan_dispatch(*spec, points.size(), opts_, &error);
  if (!plan) return fail(error, DispatchStatus::spec_mismatch);
  const std::size_t workers = plan->workers;
  const std::size_t n_shards = plan->n_shards;

  std::error_code ec;
  std::filesystem::create_directories(opts_.work_dir, ec);
  if (ec)
    return fail("cannot create work dir " + opts_.work_dir + ": " +
                ec.message());

  // The slot pool: every transport's slots, concatenated. No transports
  // configured means today's local pool, unchanged.
  auto transports = opts_.transports;
  if (transports.empty())
    transports.push_back(
        std::make_shared<LocalTransport>(opts_.campaign_binary, workers));
  std::vector<HostState> hosts(transports.size());
  std::vector<std::size_t> slot_owner;  // slot index -> transport index
  for (std::size_t t = 0; t < transports.size(); ++t)
    for (std::size_t k = 0; k < transports[t]->slots(); ++k)
      slot_owner.push_back(t);

  const auto lose_host = [&](std::size_t t, const std::string& reason) {
    if (hosts[t].dead) return;
    hosts[t].dead = true;
    result.lost_hosts.push_back(transports[t]->host());
    if (opts_.on_host_lost) opts_.on_host_lost(transports[t]->host(), reason);
  };

  // One machine-level failure against host `t`; enough of them in a row
  // and the host is lost.
  const auto host_fail = [&](std::size_t t, const std::string& reason) {
    if (hosts[t].dead) return;
    if (++hosts[t].fails >= opts_.host_max_failures) lose_host(t, reason);
  };

  // Pre-flight every transport once. An unreachable host is lost before
  // it ever holds a shard (the run degrades to the survivors); a host
  // running a *different build* is a hard error -- degrading around
  // fleet skew would hide exactly the divergence it causes.
  for (std::size_t t = 0; t < transports.size(); ++t) {
    std::string note;
    const auto hs = transports[t]->handshake(opts_.expected_worker_version,
                                             opts_.trace_dir, &error, &note);
    if (hs == HandshakeStatus::mismatch)
      return fail(error, DispatchStatus::error);
    if (hs == HandshakeStatus::unreachable) lose_host(t, error);
    if (!note.empty() && opts_.on_host_note)
      opts_.on_host_note(transports[t]->host(), note);
  }
  {
    bool any_live = false;
    for (const auto& h : hosts) any_live = any_live || !h.dead;
    if (!any_live)
      return fail("dispatch: no usable hosts (" + error + ")",
                  DispatchStatus::error);
  }

  std::vector<ShardState> shards(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    auto& s = shards[i];
    s.expected = shard_size(points.size(), i, n_shards);
    const auto base = opts_.work_dir + "/shard_" + std::to_string(i);
    s.journal_path = base + ".journal";
    s.log_path = base + ".log";
    s.tailer.emplace(s.journal_path);
  }

  // Shard membership (index striping, matching campaign::shard) and the
  // key->point map the quarantine machinery navigates by.
  std::vector<std::vector<const CampaignPoint*>> members(n_shards);
  std::unordered_map<std::string, const CampaignPoint*> by_key;
  by_key.reserve(points.size());
  for (const auto& p : points) {
    members[p.index % n_shards].push_back(&p);
    by_key.emplace(p.key, &p);
  }

  // Quarantine sidecar: already-quarantined points of a previous run
  // stay quarantined -- a re-dispatch must not re-poison itself on them.
  const std::string sidecar = opts_.work_dir + "/quarantine.jsonl";
  {
    std::ifstream in(sidecar);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      const auto fields = common::parse_jsonl_line(line);
      if (!fields) continue;
      std::string key, reason;
      for (const auto& [k, v] : *fields) {
        if (k == "key") key = v;
        else if (k == "reason") reason = v;
      }
      const auto it = by_key.find(key);
      if (it == by_key.end()) continue;  // stale entry; spec check caught worse
      const std::size_t shard_i = it->second->index % n_shards;
      if (!shards[shard_i].quarantined.insert(key).second) continue;
      result.quarantined.push_back(
          {key, it->second->index, shard_i, reason});
    }
  }

  const auto quarantine_point = [&](std::size_t shard_i,
                                    const std::string& key,
                                    const std::string& reason) {
    auto& s = shards[shard_i];
    if (!s.quarantined.insert(key).second) return;
    const std::uint64_t index = by_key.at(key)->index;
    result.quarantined.push_back({key, index, shard_i, reason});
    std::ofstream out(sidecar, std::ios::app);
    out << "{\"key\":\"" << common::json_escape(key)
        << "\",\"index\":" << index << ",\"shard\":" << shard_i
        << ",\"reason\":\"" << common::json_escape(reason) << "\"}\n";
    out.flush();
    if (opts_.on_quarantine) opts_.on_quarantine(key, index, shard_i);
  };

  // Worker launch plan: the resolved spec as flags (workers parse the
  // identical spec; their journal spec-hash check enforces it), plus the
  // shard assignment and durability flags. The transport adds the
  // journal/resume flags itself (local workers resume the local journal
  // in place; remote ones start fresh and skip what is already durable).
  // Quarantined keys -- and, while probing, the suspects outside the
  // probe target -- are excluded via the plan's skip set.
  const auto worker_plan = [&](std::size_t shard_i) {
    const auto& s = shards[shard_i];
    WorkerPlan plan;
    plan.shard = shard_i;
    for (const auto& [k, v] : spec_kv_)
      plan.flags.push_back("--" + k + "=" + v);
    plan.flags.push_back("--shard=" + std::to_string(shard_i) + "/" +
                         std::to_string(n_shards));
    plan.flags.push_back("--threads=" + std::to_string(opts_.worker_threads));
    if (opts_.trace_cache_mb > 0)
      plan.flags.push_back("--trace-cache-mb=" +
                           std::to_string(opts_.trace_cache_mb));
    if (!opts_.trace_dir.empty())
      plan.flags.push_back("--trace-dir=" + opts_.trace_dir);
    plan.flags.push_back("--baseline=none");
    plan.flags.push_back("--quiet");
    plan.skip.assign(s.quarantined.begin(), s.quarantined.end());
    std::sort(plan.skip.begin(), plan.skip.end());
    if (s.probing)
      plan.skip.insert(plan.skip.end(),
                       s.suspects.begin() + s.probe_target.size(),
                       s.suspects.end());
    plan.done.assign(s.done_keys.begin(), s.done_keys.end());
    std::sort(plan.done.begin(), plan.done.end());
    plan.journal_path = s.journal_path;
    plan.log_path = s.log_path;
    return plan;
  };

  // Probe-round bookkeeping, run just before a probing shard launches:
  // suspects that journaled in the meantime (or were quarantined) are
  // settled; the first half of what remains is this round's target.
  const auto prepare_probe = [&](std::size_t shard_i) {
    auto& s = shards[shard_i];
    if (!s.probing) return;
    std::vector<std::string> live;
    for (const auto& k : s.suspects)
      if (!s.done_keys.count(k) && !s.quarantined.count(k))
        live.push_back(k);
    s.suspects = std::move(live);
    if (s.suspects.empty()) {  // every suspect settled: back to normal
      s.probing = false;
      s.probe_target.clear();
      return;
    }
    const std::size_t take = (s.suspects.size() + 1) / 2;
    s.probe_target.assign(s.suspects.begin(),
                          s.suspects.begin() + static_cast<long>(take));
  };

  std::size_t remaining = n_shards;

  const auto abandon = [&](std::size_t shard_i, std::string msg) {
    auto& s = shards[shard_i];
    s.abandoned = true;
    --remaining;
    if (result.error.empty()) result.error = std::move(msg);
  };

  const auto backoff_delay = [&](std::size_t shard_i) {
    const auto& s = shards[shard_i];
    if (s.no_progress == 0) return std::chrono::milliseconds{0};
    const std::size_t exp = std::min<std::size_t>(s.no_progress - 1, 16);
    auto delay = opts_.backoff_base * (1LL << exp);
    if (delay > opts_.backoff_max) delay = opts_.backoff_max;
    if (delay.count() > 0) {
      // Deterministic jitter: same seed/shard/attempt -> same delay, so
      // chaos tests replay exactly while real fleets de-synchronize.
      const std::uint64_t j =
          splitmix64(opts_.backoff_seed ^
                     (static_cast<std::uint64_t>(shard_i) << 32) ^
                     static_cast<std::uint64_t>(s.attempts));
      delay += std::chrono::milliseconds(
          j % static_cast<std::uint64_t>(delay.count() / 2 + 1));
    }
    return std::chrono::duration_cast<std::chrono::milliseconds>(delay);
  };

  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < n_shards; ++i) queue.push_back(i);
  std::vector<std::optional<Slot>> slots(slot_owner.size());

  const auto finish = [&](bool ok, std::string msg, DispatchStatus st) {
    slots.clear();  // ~WorkerHandle kills and reaps anything still running
    result.shards.clear();
    for (std::size_t i = 0; i < n_shards; ++i) {
      const auto& s = shards[i];
      result.shards.push_back({i, s.attempts, s.completed,
                               s.tailer->rows_seen(), s.journal_path,
                               s.log_path});
    }
    if (!ok) return fail(std::move(msg), st);
    result.ok = true;
    result.status = st;
    return result;
  };

  std::size_t last_reported = static_cast<std::size_t>(-1);
  const auto report_progress = [&] {
    std::size_t done = 0;
    for (const auto& s : shards) done += s.tailer->rows_seen();
    if (opts_.on_progress && done != last_reported) {
      last_reported = done;
      opts_.on_progress(done, points.size());
    }
  };

  while (remaining > 0) {
    const auto now = Clock::now();

    // Fill idle slots with backoff-eligible queued shards. A requeued
    // shard is *reassigned*: it takes a free slot other than the one it
    // just died on when one exists, and only reuses its old slot rather
    // than leave it idle.
    for (std::size_t qi = 0; qi < queue.size();) {
      const std::size_t shard_i = queue[qi];
      auto& s = shards[shard_i];
      if (now < s.eligible_at) {  // still backing off
        ++qi;
        continue;
      }
      std::size_t slot_i = kNoSlot;
      for (std::size_t c = 0; c < slots.size(); ++c) {
        if (slots[c] || hosts[slot_owner[c]].dead) continue;
        slot_i = c;
        if (c != s.last_slot) break;  // keep looking past the death slot
      }
      if (slot_i == kNoSlot) break;  // every live slot busy
      queue.erase(queue.begin() + static_cast<long>(qi));
      prepare_probe(shard_i);
      const std::size_t t = slot_owner[slot_i];
      bool transient = false;
      auto worker =
          transports[t]->launch(worker_plan(shard_i), &error, &transient);
      if (!worker) {
        // A permanent spawn failure (missing binary, unwritable log)
        // would fail every shard identically: stop the dispatch with
        // the real reason. A transient one (fork/fd pressure, injected
        // worker.spawn fault) is just a failed attempt -- and on a
        // remote transport it is the *host's* failure, not the shard's:
        // count it against the host budget and requeue without touching
        // the shard's no-progress streak.
        if (!transient) return finish(false, error, DispatchStatus::error);
        s.attempts++;
        if (!transports[t]->local()) {
          host_fail(t, error);
          result.restarts++;
          s.eligible_at = now + backoff_delay(shard_i);
          queue.push_back(shard_i);
          continue;
        }
        s.no_progress++;
        if (s.no_progress >= opts_.max_attempts) {
          abandon(shard_i,
                  "shard " + std::to_string(shard_i) + " failed " +
                      std::to_string(s.no_progress) + "/" +
                      std::to_string(opts_.max_attempts) + " attempts (" +
                      error + "); see " + s.log_path);
        } else {
          result.restarts++;
          s.eligible_at = now + backoff_delay(shard_i);
          queue.push_back(shard_i);
        }
        continue;
      }
      if (opts_.on_spawn)
        opts_.on_spawn(shard_i, s.attempts, slot_i, worker->pid());
      s.last_slot = slot_i;
      slots[slot_i].emplace(Slot{std::move(worker), shard_i, t, s.attempts,
                                 s.tailer->rows_seen(), s.tailer->offset(),
                                 now, std::nullopt});
    }

    // Stranded check: every host lost and nothing running means the
    // queued shards can never launch again.
    {
      bool any_live = false, any_busy = false;
      for (const auto& h : hosts) any_live = any_live || !h.dead;
      for (const auto& slot : slots) any_busy = any_busy || slot.has_value();
      if (!any_live && !any_busy) {
        for (std::size_t i = 0; i < n_shards; ++i)
          if (!shards[i].completed && !shards[i].abandoned)
            abandon(i, "shard " + std::to_string(i) +
                           " stranded: every host was lost");
        break;
      }
    }

    // Move remote journal streams into the local journals before the
    // tailers look: the stream is how those journals grow.
    for (auto& slot : slots)
      if (slot) slot->worker->pump();

    // Tail journals for live progress (and the done_keys bookkeeping the
    // quarantine bisect navigates by).
    for (auto& s : shards) {
      if (s.completed || s.abandoned) continue;
      const auto fresh = s.tailer->poll();
      for (const auto& k : fresh) s.done_keys.insert(k);
      if (!fresh.empty() && opts_.on_shard_rows)
        opts_.on_shard_rows(std::size_t(&s - shards.data()),
                            s.tailer->rows_seen());
    }
    report_progress();

    // Watchdog: a worker whose journal offset has not moved within
    // stall_timeout gets SIGTERM (graceful row-boundary exit), then
    // SIGKILL after kill_grace. The kill surfaces below as an ordinary
    // failed attempt -- restart, backoff, quarantine all apply.
    for (auto& slot : slots) {
      if (!slot) continue;
      const auto off = shards[slot->shard].tailer->offset();
      if (off != slot->last_offset) {
        slot->last_offset = off;
        slot->last_change = now;
      }
      if (opts_.stall_timeout.count() > 0 && !slot->term_at &&
          now - slot->last_change >= opts_.stall_timeout) {
        result.stalls++;
        if (opts_.on_stall) opts_.on_stall(slot->shard, slot->attempt);
        slot->worker->kill(SIGTERM);
        slot->term_at = now;
      }
      if (slot->term_at && now - *slot->term_at >= opts_.kill_grace)
        slot->worker->kill(SIGKILL);
    }

    // Reap finished workers.
    for (auto& slot : slots) {
      if (!slot) continue;
      const auto status = slot->worker->poll();
      if (!status) continue;
      slot->worker->drain();  // stream remainder -> local journal
      auto& s = shards[slot->shard];
      s.attempts++;
      for (const auto& k : s.tailer->poll())  // rows landed just before exit
        s.done_keys.insert(k);
      const std::size_t rows = s.tailer->rows_seen();
      const bool progressed = rows > slot->rows_at_spawn;

      // "Done" means exited 0 *and* every non-quarantined point of the
      // shard is journaled: a worker that exits cleanly without
      // journaling its rows (wrong binary, journal path lost) must not
      // count as success.
      std::size_t covered = s.quarantined.size();
      for (const auto& k : s.done_keys)
        if (!s.quarantined.count(k)) ++covered;
      const bool done = status->success() && covered >= s.expected;

      if (done) {
        if (opts_.on_worker_exit)
          opts_.on_worker_exit(slot->shard, slot->attempt, true, false);
        s.completed = true;
        s.probing = false;
        --remaining;
        hosts[slot->transport].fails = 0;  // the machine works
        slot.reset();
        continue;
      }

      // A machine-level failure (lost/stalled stream, ssh's exit 255) is
      // the host's fault, not the shard's: count it against the host
      // budget and requeue the shard -- its no-progress streak, probe
      // state, and abandonment budget stay untouched, because nothing
      // was learned about the *work*.
      if (!transports[slot->transport]->local() &&
          slot->worker->host_failure(*status)) {
        host_fail(slot->transport,
                  "worker " + status->describe() + " (connection lost)");
        if (opts_.on_worker_exit)
          opts_.on_worker_exit(slot->shard, slot->attempt, false, true);
        result.restarts++;
        s.eligible_at = now + backoff_delay(slot->shard);
        queue.push_back(slot->shard);
        slot.reset();
        continue;
      }

      if (progressed) {
        s.no_progress = 0;
        hosts[slot->transport].fails = 0;  // rows moved: the machine works
      } else {
        s.no_progress++;
      }

      bool give_up = false;
      std::string give_up_msg;

      if (s.probing) {
        // Narrow the bisect. Journaled targets are innocent; a failure
        // pins the poison inside the un-journaled targets; a clean exit
        // pins it in the excluded half (which prepare_probe recomputes).
        std::vector<std::string> still;
        for (const auto& k : s.probe_target)
          if (!s.done_keys.count(k)) still.push_back(k);
        if (!status->success()) {
          if (s.probe_target.size() == 1 && still.size() == 1) {
            // The probe ran exactly one un-journaled point and died on
            // it: that point is the poison.
            if (result.quarantined.size() >= opts_.max_quarantine) {
              give_up = true;
              give_up_msg =
                  "shard " + std::to_string(slot->shard) +
                  " would quarantine more than " +
                  std::to_string(opts_.max_quarantine) +
                  " points (--max-quarantine); see " + s.log_path;
            } else {
              quarantine_point(slot->shard, still[0],
                               "worker " + status->describe() +
                                   " isolating this point");
              s.no_progress = 0;  // pinning the poison is progress
            }
          } else if (!still.empty()) {
            s.suspects = still;
          }
          // still.empty(): every target journaled yet the worker died
          // in teardown -- no information; prepare_probe widens again.
        }
      } else if (s.no_progress >= opts_.max_attempts) {
        // The shard is failing without progress. Bisect for a poisoned
        // point when allowed and possible; abandon otherwise. No
        // journal at all means the worker never even started a run --
        // skipping rows cannot fix that.
        std::error_code jec;
        const bool has_journal =
            std::filesystem::exists(s.journal_path, jec) && !jec;
        std::vector<std::string> fresh_suspects;
        if (!opts_.fail_fast && has_journal)
          for (const auto* p : members[slot->shard])
            if (!s.done_keys.count(p->key) && !s.quarantined.count(p->key))
              fresh_suspects.push_back(p->key);
        if (!fresh_suspects.empty()) {
          s.probing = true;
          s.suspects = std::move(fresh_suspects);
          s.no_progress = 0;  // the bisect gets its own budget
        } else {
          give_up = true;
          give_up_msg = "shard " + std::to_string(slot->shard) + " failed " +
                        std::to_string(std::max(s.no_progress,
                                                opts_.max_attempts)) +
                        "/" + std::to_string(opts_.max_attempts) +
                        " attempts (" + status->describe() + "); see " +
                        s.log_path;
        }
      }

      const bool will_retry = !give_up;
      if (opts_.on_worker_exit)
        opts_.on_worker_exit(slot->shard, slot->attempt, false, will_retry);
      if (give_up) {
        abandon(slot->shard, std::move(give_up_msg));
      } else {
        result.restarts++;
        s.eligible_at = now + backoff_delay(slot->shard);
        queue.push_back(slot->shard);  // restart via --resume, other slot
      }
      slot.reset();
    }

    if (remaining > 0) wait_for_workers(slots, opts_.poll_interval);
  }

  report_progress();
  bool any_abandoned = false;
  for (const auto& s : shards) any_abandoned = any_abandoned || s.abandoned;
  if (any_abandoned)
    return finish(false, result.error, DispatchStatus::abandoned);
  if (!result.quarantined.empty())
    return finish(true, "", DispatchStatus::quarantined);
  if (!result.lost_hosts.empty())
    return finish(true, "", DispatchStatus::host_lost);
  return finish(true, "", DispatchStatus::ok);
}

std::optional<RowTable> merge_dispatch_journals(
    const std::vector<std::string>& journal_paths, std::string* error) {
  // Journals load in parallel, one per thread up to the core count
  // (load_rows shares no state); the verdicts are then read in path order,
  // so the error is the first failing path's, as a sequential load would
  // report it.
  const std::size_t n = journal_paths.size();
  std::vector<std::optional<RowTable>> tables(n);
  std::vector<std::string> errors(n);
  std::atomic<std::size_t> next{0};
  const auto load = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;)
      tables[i] = load_rows(journal_paths[i], &errors[i]);
  };
  {
    const std::size_t threads = std::min<std::size_t>(
        n, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(load);
    load();
  }
  std::vector<RowTable> loaded;
  loaded.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!tables[i]) {
      if (error) *error = std::move(errors[i]);
      return std::nullopt;
    }
    loaded.push_back(std::move(*tables[i]));
  }
  return merge_tables(std::move(loaded), error);
}

}  // namespace reap::campaign
