// Direct-mapped memo for pure uint64-keyed functions on simulator hot
// paths (the binomial tails).
//
// Deliberately bounded and collision-evicting: a probe must stay
// cache-resident — an unbounded table measured slower than recomputing on
// huge-footprint workloads once probes outgrew the last-level cache. A
// collision simply recomputes, so memoizing a pure function through this
// cannot change any returned value. Not thread-safe; keep one memo per
// owning model instance.
#pragma once

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

  void insert(std::uint64_t key, const Value& value) {
    if (keys_.empty()) {
      keys_.assign(Slots, 0);
      values_.resize(Slots);
    }
    const std::size_t slot = slot_of(key);
    keys_[slot] = key + 1;
    values_[slot] = value;
  }

 private:
  static std::size_t slot_of(std::uint64_t key) {
    // splitmix64-finalizer mix folds low-entropy keys into distinct slots.
    std::uint64_t h = key;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return static_cast<std::size_t>(h) & (Slots - 1);
  }

  std::vector<std::uint64_t> keys_;  // key + 1 per slot; 0 = empty
  std::vector<Value> values_;
};

}  // namespace reap::common
