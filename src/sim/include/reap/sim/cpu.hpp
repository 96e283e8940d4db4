// Trace-driven in-order core.
//
// One instruction per cycle plus memory stall cycles from the hierarchy --
// the timing fidelity the paper's evaluation needs (it reports no IPC
// results; cycle counts only convert failure-probability sums into MTTF
// and let us confirm REAP's "no performance impact" claim via the L2
// latency each policy reports).
//
// One drive loop, run(n, policy): each refill pulls batch_cap(left) ops --
// up to kBatchOps, but no more than the instructions still left in the
// budget can use, so a short pass does not generate a full batch it never
// executes -- and the hierarchy is instantiated over the concrete policy
// type, so the whole instruction -> L1 -> L2 -> policy path inlines with
// no per-op virtual dispatch. Each batch gets a vectorizable pre-pass
// (simd::predecode: every op's L2 set/tagv into flat arrays), the loop
// prefetches the set columns a fixed distance ahead, and L2 demand
// lookups go through the pre-decoded coordinates (L2Hint) instead of
// per-access address derivation. Its results are pinned against an
// independent reference model that pulls one op at a time
// (tests/core/test_reference_model.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "reap/sim/hierarchy.hpp"
#include "reap/sim/simd.hpp"
#include "reap/trace/record.hpp"

namespace reap::sim {

class TraceCpu {
 public:
  TraceCpu(trace::TraceSource& source, MemoryHierarchy& mem,
           double clock_ghz = 2.0);

  // Points the core at a new op stream and clock and clears its counters
  // and buffered ops, as a fresh TraceCpu(source, mem, clock_ghz) would
  // start; the batch and pre-decode buffers keep their allocations.
  void rebind(trace::TraceSource& source, double clock_ghz);

  // The most ops one TraceSource::next_batch call pulls.
  static constexpr std::size_t kBatchOps = 4096;

  // Ops a refill pulls when `left` instructions of the budget remain:
  // about 1.5 ops per instruction plus a few for the data ops that follow
  // the last fetch, at most kBatchOps. Any span that holds one
  // instruction group is correct -- a short refill is simply followed by
  // another, and sources emit the same stream whatever the span size.
  static constexpr std::size_t batch_cap(std::uint64_t left) {
    return left >= kBatchOps ? kBatchOps
                             : std::min<std::size_t>(
                                   kBatchOps, left + left / 2 + 8);
  }

  // How many ops ahead run prefetches the L2 set columns.
  // Far enough that the lines arrive before the op needs them (several
  // ops' worth of simulation work), near enough that they are not evicted
  // again in between.
  static constexpr std::size_t kPrefetchAhead = 8;

  // Executes up to `max_instructions`, driving the L2 with `l2_hooks`;
  // stops early at end of trace. Returns instructions executed in this
  // call. An instruction fetch past the budget stays buffered for the
  // next call, so an instruction's data ops always run with it: calls
  // with budgets a and b execute what one call with a + b would.
  template <class L2Hooks>
  std::uint64_t run(std::uint64_t max_instructions, L2Hooks& l2_hooks) {
    if (buf_.empty()) {
      buf_.resize(kBatchOps);
      pre_set_.resize(kBatchOps);
      pre_tagv_.resize(kBatchOps);
    }
    const SetAssocCache& l2 = mem_.l2();
    std::uint64_t executed = 0;
    for (;;) {
      if (buf_pos_ == buf_len_) {
        buf_len_ = source_->next_batch(
            {buf_.data(), batch_cap(max_instructions - executed)});
        buf_pos_ = 0;
        if (buf_len_ == 0) break;  // end of trace
        // The pre-pass: pure shifts/masks over the fresh batch, hoisting
        // every op's L2 set/tagv derivation out of the access path.
        simd::predecode(buf_.data(), buf_len_, l2.offset_bits(),
                        l2.index_bits(), pre_set_.data(), pre_tagv_.data());
      }
      // Pull the L2 set columns an op will touch kPrefetchAhead ops from
      // now; the intervening (independent) ops hide the miss latency.
      if (buf_pos_ + kPrefetchAhead < buf_len_)
        mem_.prefetch_l2(pre_set_[buf_pos_ + kPrefetchAhead]);
      const trace::MemOp op = buf_[buf_pos_];
      const L2Hint hint{pre_set_[buf_pos_], pre_tagv_[buf_pos_]};
      switch (op.type) {
        case trace::OpType::inst_fetch:
          if (executed == max_instructions) return executed;
          ++buf_pos_;
          ++executed;
          ++instructions_;
          cycles_ += 1 + mem_.inst_fetch(op.addr, l2_hooks, hint);
          break;
        case trace::OpType::load:
          ++buf_pos_;
          cycles_ += mem_.load(op.addr, l2_hooks, hint);
          break;
        case trace::OpType::store:
          ++buf_pos_;
          cycles_ += mem_.store(op.addr, l2_hooks, hint);
          break;
      }
    }
    return executed;
  }

  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t cycles() const { return cycles_; }
  double ipc() const {
    return cycles_ == 0 ? 0.0
                        : static_cast<double>(instructions_) /
                              static_cast<double>(cycles_);
  }
  double seconds() const {
    return static_cast<double>(cycles_) / (clock_ghz_ * 1e9);
  }
  double clock_ghz() const { return clock_ghz_; }

  void reset_counters() { instructions_ = cycles_ = 0; }

 private:
  trace::TraceSource* source_ = nullptr;
  MemoryHierarchy& mem_;
  double clock_ghz_ = 0.0;
  std::uint64_t instructions_ = 0;
  std::uint64_t cycles_ = 0;
  // The current batch: buffered ops not yet consumed (buf_[buf_pos_ ..
  // buf_len_)) and every op's pre-decoded L2 coordinates.
  std::vector<trace::MemOp> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  std::vector<std::uint32_t> pre_set_;
  std::vector<std::uint64_t> pre_tagv_;
};

}  // namespace reap::sim
