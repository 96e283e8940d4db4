// Histograms for concealed-read distributions (Fig. 3 reproduction).
//
// LogHistogram bins counts on a logarithmic x-axis (value 0 gets its own
// bin) because concealed-read counts span 0 .. 1e5+. Each bin carries both
// an event count and an accumulated weight so the same structure yields the
// paper's "normalized frequency" series (counts) and "failure rate" series
// (summed failure probability) per bin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace reap::common {

struct HistogramBin {
  std::uint64_t lo = 0;      // inclusive value range of the bin
  std::uint64_t hi = 0;      // inclusive
  std::uint64_t count = 0;   // number of samples
  double weight = 0.0;       // accumulated user weight (e.g. failure prob)
};

class LogHistogram {
 public:
  // bins_per_decade controls x resolution; max_value the last tracked value
  // (larger samples clamp into the final bin and are counted in
  // `overflow()`).
  static constexpr unsigned kDefaultBinsPerDecade = 8;
  static constexpr std::uint64_t kDefaultMaxValue = 10'000'000;

  explicit LogHistogram(unsigned bins_per_decade = kDefaultBinsPerDecade,
                        std::uint64_t max_value = kDefaultMaxValue);

  void add(std::uint64_t value, double weight = 0.0);

  // Forgets every sample and keeps the bin layout: the histogram then
  // equals a freshly constructed one with the same shape, without
  // recomputing its bin edges.
  void clear();

  // Bins with nonzero count, in increasing value order.
  std::vector<HistogramBin> nonempty_bins() const;

  std::uint64_t total_count() const { return total_count_; }
  double total_weight() const { return total_weight_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t max_sample() const { return max_sample_; }

  // Renders "value-range  count  weight" rows; `normalize_to` scales counts
  // (the paper normalizes frequencies to the zero-concealed-read count).
  std::string render(const std::string& count_label,
                     const std::string& weight_label,
                     double normalize_to = 0.0) const;

 private:
  std::size_t bin_index(std::uint64_t value) const;
  static std::vector<HistogramBin> make_bins(unsigned bins_per_decade,
                                             std::uint64_t max_value);

  unsigned bins_per_decade_;
  std::uint64_t max_value_;
  std::vector<HistogramBin> bins_;
  std::uint64_t total_count_ = 0;
  double total_weight_ = 0.0;
  std::uint64_t overflow_ = 0;
  std::uint64_t max_sample_ = 0;
};

// Simple fixed-width linear histogram (tests + diagnostics).
class LinearHistogram {
 public:
  LinearHistogram(double lo, double hi, std::size_t nbins);

  void add(double value);

  std::size_t nbins() const { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const { return counts_[bin]; }
  std::uint64_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace reap::common
