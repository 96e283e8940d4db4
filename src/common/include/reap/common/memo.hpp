// Direct-mapped memo for pure uint64-keyed functions on simulator hot
// paths (binomial tails, per-block ones counts).
//
// Deliberately bounded and collision-evicting: a probe must stay
// cache-resident — an unbounded table measured slower than recomputing on
// huge-footprint workloads once probes outgrew the last-level cache. A
// collision simply recomputes, so memoizing a pure function through this
// cannot change any returned value. Not thread-safe; keep one memo per
// owning model instance.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace reap::common {

template <class Value, std::size_t Slots>
class DirectMappedMemo {
  static_assert(std::has_single_bit(Slots), "slot count must be 2^n");

 public:
  // nullptr on miss. Lazily allocates on first use (via insert), so
  // never-queried memos cost nothing.
  const Value* find(std::uint64_t key) const {
    if (keys_.empty()) return nullptr;
    const std::size_t slot = slot_of(key);
    if (keys_[slot] != key + 1) return nullptr;  // 0 marks an empty slot
    return &values_[slot];
  }

  // Software-prefetch the slot `key` maps to (both columns), for callers
  // that know a probe is coming a few operations ahead. A pure latency
  // hint: no allocation, no contents change.
  void prefetch(std::uint64_t key) const {
#if defined(__GNUC__)
    if (keys_.empty()) return;
    const std::size_t slot = slot_of(key);
    __builtin_prefetch(&keys_[slot], /*rw=*/0, /*locality=*/3);
    __builtin_prefetch(&values_[slot], /*rw=*/0, /*locality=*/3);
#else
    (void)key;
#endif
  }

  void insert(std::uint64_t key, const Value& value) {
    if (keys_.empty()) {
      keys_.assign(Slots, 0);
      values_.resize(Slots);
    }
    const std::size_t slot = slot_of(key);
    if (keys_[slot] == 0 && filled_.size() <= kMaxTracked)
      filled_.push_back(static_cast<std::uint32_t>(slot));
    keys_[slot] = key + 1;
    values_[slot] = value;
  }

  // Forgets every entry and keeps the allocation, so a cleared memo costs
  // no page faults. Only the key column is zeroed: a value is never read
  // unless its key matches. A memo that filled few slots since the last
  // clear zeroes just those; past kMaxTracked it zeroes the whole column.
  void clear() {
    if (filled_.size() > kMaxTracked) {
      std::fill(keys_.begin(), keys_.end(), std::uint64_t{0});
    } else {
      for (const std::uint32_t slot : filled_) keys_[slot] = 0;
    }
    filled_.clear();
  }

  // Address of the key column (null until the first insert); lets tests
  // check that clear() keeps the storage.
  const void* storage() const { return keys_.data(); }

 private:
  static std::size_t slot_of(std::uint64_t key) {
    // splitmix64-finalizer mix folds low-entropy keys into distinct slots.
    std::uint64_t h = key;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return static_cast<std::size_t>(h) & (Slots - 1);
  }

  // Past this many filled slots a clear zeroes the whole key column,
  // which is then cheaper than visiting the slots one by one.
  static constexpr std::size_t kMaxTracked = Slots / 8;

  std::vector<std::uint64_t> keys_;  // key + 1 per slot; 0 = empty
  std::vector<Value> values_;
  // The first kMaxTracked + 1 slots filled since the last clear. While it
  // holds no more than kMaxTracked, they are exactly the non-empty slots.
  std::vector<std::uint32_t> filled_;
};

}  // namespace reap::common
