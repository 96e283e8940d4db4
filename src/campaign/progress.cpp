#include "reap/campaign/progress.hpp"

namespace reap::campaign {

void ProgressReporter::operator()(std::size_t done, std::size_t total) {
  const auto now = Clock::now();
  if (!started_) {
    start_ = now;
    started_ = true;
  }
  // Rate-limit to ~5 updates/second (but always print the final one) and
  // return before any formatting: this runs under the runner's progress
  // mutex, so the common path must stay a clock read and a compare.
  if (done != total &&
      now - last_print_ < std::chrono::milliseconds(200))
    return;
  last_print_ = now;

  const double elapsed =
      std::chrono::duration<double>(now - start_).count();
  const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  const double eta =
      rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
  std::fprintf(out_,
               "\r  campaign: %zu/%zu (%.0f%%)  %.2f rows/s  "
               "%.1fs elapsed, %.1fs eta",
               done, total,
               100.0 * static_cast<double>(done) / static_cast<double>(total),
               rate, elapsed, eta);
  if (done == total) std::fputc('\n', out_);
  std::fflush(out_);
}

}  // namespace reap::campaign
