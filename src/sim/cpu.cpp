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
  buf_pos_ = buf_len_ = 0;
}

}  // namespace reap::sim
