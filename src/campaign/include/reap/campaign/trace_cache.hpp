// Campaign-level trace replay cache.
//
// Every point of one paired comparison (the policy / ecc / scrub design
// axes) replays the byte-identical op stream — the seed rule guarantees it
// (spec.hpp / seed.hpp) and CampaignPoint::trace_key names it. The cache
// materializes each distinct trace once (trace::MaterializedTrace) and
// hands shared references to every simulation pass of the group. The
// runner already runs a trace group as one pass wherever its points share
// one (core::shares_pass), so the cache pays off for keys that span
// several passes -- least-error-rate replacement runs each point alone --
// and for mapped store files. The runner schedules a key's passes back to
// back, so a cap of roughly one trace per worker thread already serves a
// whole campaign.
//
// Memory discipline: the cache accounts the real arena bytes of every
// trace it retains and evicts least-recently-used idle entries to stay
// under cap_bytes. A trace whose arena alone exceeds the cap is handed to
// the requester uncached (still correct — every consumer can rematerialize
// — just unshared). In-use traces are never evicted: consumers hold
// shared_ptrs, so eviction only drops the cache's reference and the arena
// dies when its last replayer finishes.
//
// Thread-safe; concurrent requests for one key materialize once (single
// flight) while the other requesters block on the entry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "reap/campaign/spec.hpp"
#include "reap/trace/replay.hpp"

namespace reap::campaign {

// The trace-group plan of a point list: the number of distinct trace
// keys (traces to materialize) and the estimated arena bytes of the
// largest one. Shared by the reap_campaign and reap_dispatch --dry-run
// reports so the two plans cannot drift.
struct TracePlan {
  std::size_t groups = 0;
  std::size_t largest_bytes = 0;
};
TracePlan trace_plan(const std::vector<CampaignPoint>& points);

// Counters are cumulative and readable while the campaign runs (the
// progress line samples hits/misses); loads are relaxed snapshots.
struct TraceCacheStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};      // includes uncached oversize
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> uncached{0};    // oversize bypasses
  std::atomic<std::size_t> bytes{0};         // currently accounted
  std::atomic<std::size_t> peak_bytes{0};    // max of bytes over the run
};

class TraceCache {
 public:
  using TracePtr = std::shared_ptr<const trace::MaterializedTrace>;
  using Materializer = std::function<trace::MaterializedTrace()>;

  // cap_bytes: retained-arena budget. The cap bounds what the cache keeps;
  // it is a cache, never a correctness gate — an oversize trace streams
  // through uncached rather than failing.
  explicit TraceCache(std::size_t cap_bytes) : cap_bytes_(cap_bytes) {}

  // The trace for `key`: the cached arena on a hit, otherwise the result
  // of `make()` (run outside the lock; concurrent same-key requests wait
  // for the one in flight instead of materializing again).
  TracePtr acquire(const std::string& key, const Materializer& make);

  std::size_t cap_bytes() const { return cap_bytes_; }
  const TraceCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    TracePtr trace;             // null while the materialization is in flight
    bool building = false;
    std::list<std::string>::iterator lru;  // valid when trace != null
  };

  void evict_idle_locked(std::size_t incoming);

  const std::size_t cap_bytes_;
  TraceCacheStats stats_;
  std::mutex mu_;
  std::condition_variable built_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  // Keys whose arena is known to exceed the cap (trace size is a pure
  // function of the key). Later acquires materialize immediately instead
  // of funnelling through the single-flight protocol — concurrent bypass
  // builds of one key must run in parallel, exactly as they would with
  // the cache off.
  std::unordered_set<std::string> oversize_;
};

}  // namespace reap::campaign
