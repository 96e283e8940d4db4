#include "reap/sim/cpu.hpp"

#include "reap/common/assert.hpp"

namespace reap::sim {

TraceCpu::TraceCpu(trace::TraceSource& source, MemoryHierarchy& mem,
                   double clock_ghz)
    : mem_(mem) {
  rebind(source, clock_ghz);
}

void TraceCpu::rebind(trace::TraceSource& source, double clock_ghz) {
  REAP_EXPECTS(clock_ghz > 0.0);
  source_ = &source;
  clock_ghz_ = clock_ghz;
  instructions_ = cycles_ = 0;
  pending_valid_ = false;
  buf_pos_ = buf_len_ = pre_len_ = 0;
}

std::uint64_t TraceCpu::run(std::uint64_t max_instructions) {
  std::uint64_t executed = 0;
  trace::MemOp op;
  for (;;) {
    if (pending_valid_) {
      op = pending_;
      pending_valid_ = false;
    } else if (!source_->next(op)) {
      break;
    }
    switch (op.type) {
      case trace::OpType::inst_fetch:
        // An instruction boundary past the budget is deferred to the next
        // run() call so the current instruction's data ops stay with it.
        if (executed == max_instructions) {
          pending_ = op;
          pending_valid_ = true;
          return executed;
        }
        ++executed;
        ++instructions_;
        cycles_ += 1 + mem_.inst_fetch(op.addr);
        break;
      case trace::OpType::load:
        cycles_ += mem_.load(op.addr);
        break;
      case trace::OpType::store:
        cycles_ += mem_.store(op.addr);
        break;
    }
  }
  return executed;
}

}  // namespace reap::sim
