#include "reap/reliability/ledger.hpp"

namespace reap::reliability {

namespace {
constexpr unsigned kBinsPerDecade = 8;
constexpr std::uint64_t kMaxConcealedTracked = 10'000'000;
}  // namespace

FailureLedger::FailureLedger()
    : histogram_(kBinsPerDecade, kMaxConcealedTracked) {}

void FailureLedger::record_check(std::uint64_t concealed, double p_fail) {
  total_failure_prob_ += p_fail;
  ++checks_;
  histogram_.add(concealed, p_fail);
}

void FailureLedger::record_unattributed(double p_fail) {
  total_failure_prob_ += p_fail;
  ++checks_;
}

void FailureLedger::reset() {
  total_failure_prob_ = 0.0;
  checks_ = 0;
  histogram_.clear();
}

}  // namespace reap::reliability
