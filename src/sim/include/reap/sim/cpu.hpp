// Trace-driven in-order core.
//
// One instruction per cycle plus memory stall cycles from the hierarchy --
// the timing fidelity the paper's evaluation needs (it reports no IPC
// results; cycle counts only convert failure-probability sums into MTTF
// and let us confirm REAP's "no performance impact" claim via the L2
// latency each policy reports).
//
// Three drive styles share one core:
//   run(n)          -- the legacy loop: one virtual TraceSource::next per
//                      op, L2 policy dispatched through the configured
//                      runtime hooks. Kept as the reference path for the
//                      golden-equivalence test and bench_e2e baseline.
//   run(n, policy)  -- the batched loop: ops are pulled kBatchOps at a
//                      time and the hierarchy is instantiated over the
//                      concrete policy type, so the whole instruction ->
//                      L1 -> L2 -> policy path inlines with no per-op
//                      virtual dispatch.
//   run_vectorized(n, policy)
//                   -- the batched loop plus a vectorizable pre-pass per
//                      batch (simd::predecode: each op's L2 set/tagv into
//                      flat arrays), a software prefetch of the set
//                      columns a fixed distance ahead, and pre-decoded L2
//                      lookups (L2Hint) instead of per-access address
//                      derivation. Byte-identical results to run(n,
//                      policy) -- only the host-side schedule changes.
// The per-op style must not be mixed with the batched styles on one
// TraceCpu instance: each buffers upcoming ops in its own member
// (pending_ vs batch buffer) and would skip what the other buffered. The
// two batched styles share the batch buffer and may be mixed.
#pragma once

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

  // Ops pulled per TraceSource::next_batch call in the batched loop.
  static constexpr std::size_t kBatchOps = 4096;

  // How many ops ahead run_vectorized prefetches the L2 set columns.
  // Far enough that the lines arrive before the op needs them (several
  // ops' worth of simulation work), near enough that they are not evicted
  // again in between.
  static constexpr std::size_t kPrefetchAhead = 8;

  // Executes up to `max_instructions`; stops early at end of trace.
  // Returns instructions executed in this call.
  std::uint64_t run(std::uint64_t max_instructions);

  // Batched variant driving the L2 with a concrete policy type.
  template <class L2Hooks>
  std::uint64_t run(std::uint64_t max_instructions, L2Hooks& l2_hooks) {
    if (buf_.empty()) buf_.resize(kBatchOps);
    std::uint64_t executed = 0;
    for (;;) {
      if (buf_pos_ == buf_len_) {
        buf_len_ = source_->next_batch({buf_.data(), buf_.size()});
        buf_pos_ = 0;
        pre_len_ = 0;  // a fresh batch invalidates any pre-decode
        if (buf_len_ == 0) break;  // end of trace
      }
      const trace::MemOp op = buf_[buf_pos_];
      switch (op.type) {
        case trace::OpType::inst_fetch:
          // An instruction boundary past the budget stays buffered for the
          // next run() call so the current instruction's data ops stay
          // with it.
          if (executed == max_instructions) return executed;
          ++buf_pos_;
          ++executed;
          ++instructions_;
          cycles_ += 1 + mem_.inst_fetch(op.addr, l2_hooks);
          break;
        case trace::OpType::load:
          ++buf_pos_;
          cycles_ += mem_.load(op.addr, l2_hooks);
          break;
        case trace::OpType::store:
          ++buf_pos_;
          cycles_ += mem_.store(op.addr, l2_hooks);
          break;
      }
    }
    return executed;
  }

  // Vectorized batched loop: pre-decode the whole batch, prefetch ahead,
  // indirect the L2 demand path through the pre-decoded coordinates. Op
  // consumption and budget semantics are exactly run(n, policy)'s.
  template <class L2Hooks>
  std::uint64_t run_vectorized(std::uint64_t max_instructions,
                               L2Hooks& l2_hooks) {
    if (buf_.empty()) buf_.resize(kBatchOps);
    if (pre_set_.empty()) {
      pre_set_.resize(kBatchOps);
      pre_tagv_.resize(kBatchOps);
    }
    const SetAssocCache& l2 = mem_.l2();
    // A batch buffered by a previous run(n, policy) call has no decode
    // arrays yet; (re-)decode it so the two batched styles can hand off.
    if (buf_len_ != 0 && pre_len_ != buf_len_) {
      simd::predecode(buf_.data(), buf_len_, l2.offset_bits(),
                      l2.index_bits(), pre_set_.data(), pre_tagv_.data());
      pre_len_ = buf_len_;
    }
    std::uint64_t executed = 0;
    for (;;) {
      if (buf_pos_ == buf_len_) {
        buf_len_ = source_->next_batch({buf_.data(), buf_.size()});
        buf_pos_ = 0;
        if (buf_len_ == 0) break;  // end of trace
        // The pre-pass: pure shifts/masks over the fresh batch, hoisting
        // every op's L2 set/tagv derivation out of the access path.
        simd::predecode(buf_.data(), buf_len_, l2.offset_bits(),
                        l2.index_bits(), pre_set_.data(), pre_tagv_.data());
        pre_len_ = buf_len_;
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
  // Legacy path: instruction boundary seen past the budget, replayed on
  // the next run() call.
  trace::MemOp pending_{};
  bool pending_valid_ = false;
  // Batched path: buffered ops not yet consumed.
  std::vector<trace::MemOp> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  // Vectorized path: the batch's pre-decoded L2 coordinates (valid for
  // buf_[0..pre_len_)).
  std::vector<std::uint32_t> pre_set_;
  std::vector<std::uint64_t> pre_tagv_;
  std::size_t pre_len_ = 0;
};

}  // namespace reap::sim
