// Terminal progress reporting for long campaigns.
#pragma once

#include <chrono>
#include <cstdio>

namespace reap::campaign {

// Prints "  done/total (pct%)  rows/s  elapsed .. eta" to `out`, rewriting
// the line when `out` is a terminal-ish stream. Rate-limited so a fast
// grid does not flood the log, with the limiter check first so the
// mutex-held common path stays cheap. Call from the runner's on_progress
// hook (already serialized by the runner).
class ProgressReporter {
 public:
  explicit ProgressReporter(std::FILE* out = stderr) : out_(out) {}

  void operator()(std::size_t done, std::size_t total);

 private:
  using Clock = std::chrono::steady_clock;
  std::FILE* out_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point last_print_{};
  bool started_ = false;
};

}  // namespace reap::campaign
