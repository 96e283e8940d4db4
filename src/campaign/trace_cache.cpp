#include "reap/campaign/trace_cache.hpp"

#include <utility>

namespace reap::campaign {
namespace {

void bump_peak(TraceCacheStats& stats, std::size_t now) {
  std::size_t peak = stats.peak_bytes.load(std::memory_order_relaxed);
  while (now > peak &&
         !stats.peak_bytes.compare_exchange_weak(peak, now,
                                                 std::memory_order_relaxed)) {
  }
}

}  // namespace

TraceCache::TracePtr TraceCache::acquire(const std::string& key,
                                         const Materializer& make) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (oversize_.count(key)) {
      // Known too big to retain: materialize without registering in the
      // single-flight map, so concurrent requesters build in parallel
      // rather than serializing behind a build none of them can reuse.
      // (Checked inside the loop: a waiter can learn this mid-wait.)
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      stats_.uncached.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      return std::make_shared<const trace::MaterializedTrace>(make());
    }
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // miss: this thread materializes
    if (it->second.trace) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
      return it->second.trace;
    }
    // Another thread is materializing this key; wait for it. The builder
    // erases the entry on an uncached (oversize) outcome, so waiters
    // re-check from scratch rather than assuming success.
    built_.wait(lock);
  }

  entries_[key].building = true;
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();

  // Materialization runs unlocked: it is seconds of RNG work and other
  // keys' requests must not serialize behind it.
  TracePtr trace;
  try {
    trace = std::make_shared<const trace::MaterializedTrace>(make());
  } catch (...) {
    // Unblock waiters (they will retry and hit the same failure themselves
    // rather than hanging on a build that will never finish).
    lock.lock();
    entries_.erase(key);
    built_.notify_all();
    throw;
  }
  const std::size_t cost = trace->bytes();

  lock.lock();
  auto it = entries_.find(key);
  if (cost > cap_bytes_) {
    // Too big to retain: hand it to this requester only, and remember the
    // key so later acquires take the parallel bypass path up front.
    // Waiters restart and materialize their own copy (each counted).
    stats_.uncached.fetch_add(1, std::memory_order_relaxed);
    oversize_.insert(key);
    entries_.erase(it);
    built_.notify_all();
    return trace;
  }
  // Make room *before* accounting the new arena, so the accounted total
  // (and its recorded peak) never exceeds the cap while idle entries
  // exist to evict.
  evict_idle_locked(cost);
  it->second.trace = trace;
  it->second.building = false;
  lru_.push_front(key);
  it->second.lru = lru_.begin();
  const std::size_t now =
      stats_.bytes.fetch_add(cost, std::memory_order_relaxed) + cost;
  bump_peak(stats_, now);
  built_.notify_all();
  return trace;
}

void TraceCache::evict_idle_locked(std::size_t incoming) {
  // Walk from the cold end, dropping idle entries until `incoming` more
  // bytes fit under the cap. An entry still referenced outside the cache
  // (a running experiment) is skipped: evicting it would free nothing —
  // the consumer's shared_ptr keeps the arena alive — and a later
  // admission catches it once idle. With every evictable entry gone the
  // admission proceeds over cap: the cache serves correctness first and
  // the cap bounds what it *retains*, not what running experiments pin.
  auto it = lru_.end();
  while (stats_.bytes.load(std::memory_order_relaxed) + incoming >
             cap_bytes_ &&
         it != lru_.begin()) {
    --it;
    auto entry = entries_.find(*it);
    if (entry->second.trace.use_count() > 1) continue;
    stats_.bytes.fetch_sub(entry->second.trace->bytes(),
                           std::memory_order_relaxed);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    entries_.erase(entry);
    it = lru_.erase(it);
  }
}

}  // namespace reap::campaign
