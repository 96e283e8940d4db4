#include "reap/common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "reap/common/assert.hpp"

namespace reap::common {

LogHistogram::LogHistogram(unsigned bins_per_decade, std::uint64_t max_value)
    : bins_per_decade_(bins_per_decade), max_value_(max_value) {
  REAP_EXPECTS(bins_per_decade >= 1);
  REAP_EXPECTS(max_value >= 1);
  // Every ledger and every ExperimentResult holds a default-shaped
  // histogram; its edges cost a std::pow per bin, so compute them once.
  static const std::vector<HistogramBin> kDefaultBins =
      make_bins(kDefaultBinsPerDecade, kDefaultMaxValue);
  if (bins_per_decade == kDefaultBinsPerDecade &&
      max_value == kDefaultMaxValue)
    bins_ = kDefaultBins;
  else
    bins_ = make_bins(bins_per_decade, max_value);
}

std::vector<HistogramBin> LogHistogram::make_bins(unsigned bins_per_decade,
                                                  std::uint64_t max_value) {
  // Bin 0 holds value 0. Bin i>=1 holds the log-spaced range.
  const double decades = std::log10(static_cast<double>(max_value));
  const std::size_t nlog =
      static_cast<std::size_t>(std::ceil(decades * bins_per_decade)) + 1;
  std::vector<HistogramBin> bins(nlog + 1);
  bins[0] = {0, 0, 0, 0.0};
  std::uint64_t prev_hi = 0;
  for (std::size_t i = 1; i < bins.size(); ++i) {
    const double exp_hi =
        static_cast<double>(i) / static_cast<double>(bins_per_decade);
    std::uint64_t hi =
        static_cast<std::uint64_t>(std::floor(std::pow(10.0, exp_hi)));
    hi = std::max<std::uint64_t>(hi, prev_hi + 1);
    bins[i] = {prev_hi + 1, hi, 0, 0.0};
    prev_hi = hi;
  }
  bins.back().hi = std::max(bins.back().hi, max_value);
  return bins;
}

void LogHistogram::clear() {
  for (HistogramBin& b : bins_) {
    b.count = 0;
    b.weight = 0.0;
  }
  total_count_ = 0;
  total_weight_ = 0.0;
  overflow_ = 0;
  max_sample_ = 0;
}

std::size_t LogHistogram::bin_index(std::uint64_t value) const {
  if (value == 0) return 0;
  // Binary search over bin upper bounds (bins are few; this is cold path).
  std::size_t lo = 1, hi = bins_.size() - 1;
  if (value >= bins_.back().lo) return bins_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (value > bins_[mid].hi)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

void LogHistogram::add(std::uint64_t value, double weight) {
  max_sample_ = std::max(max_sample_, value);
  if (value > max_value_) {
    ++overflow_;
    value = max_value_;
  }
  auto& b = bins_[bin_index(value)];
  ++b.count;
  b.weight += weight;
  ++total_count_;
  total_weight_ += weight;
}

std::vector<HistogramBin> LogHistogram::nonempty_bins() const {
  std::vector<HistogramBin> out;
  for (const auto& b : bins_)
    if (b.count != 0) out.push_back(b);
  return out;
}

std::string LogHistogram::render(const std::string& count_label,
                                 const std::string& weight_label,
                                 double normalize_to) const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%16s %16s %16s\n", "concealed-reads",
                count_label.c_str(), weight_label.c_str());
  out += buf;
  for (const auto& b : nonempty_bins()) {
    const double c = normalize_to > 0.0
                         ? static_cast<double>(b.count) / normalize_to
                         : static_cast<double>(b.count);
    if (b.lo == b.hi) {
      std::snprintf(buf, sizeof buf, "%16llu %16.6g %16.6g\n",
                    static_cast<unsigned long long>(b.lo), c, b.weight);
    } else {
      char range[40];
      std::snprintf(range, sizeof range, "%llu-%llu",
                    static_cast<unsigned long long>(b.lo),
                    static_cast<unsigned long long>(b.hi));
      std::snprintf(buf, sizeof buf, "%16s %16.6g %16.6g\n", range, c,
                    b.weight);
    }
    out += buf;
  }
  return out;
}

LinearHistogram::LinearHistogram(double lo, double hi, std::size_t nbins)
    : lo_(lo), hi_(hi), counts_(nbins, 0) {
  REAP_EXPECTS(nbins >= 1);
  REAP_EXPECTS(hi > lo);
}

void LinearHistogram::add(double value) {
  double t = (value - lo_) / (hi_ - lo_);
  t = std::clamp(t, 0.0, 1.0);
  std::size_t bin = static_cast<std::size_t>(t * static_cast<double>(counts_.size()));
  if (bin == counts_.size()) --bin;
  ++counts_[bin];
  ++total_;
}

double LinearHistogram::bin_lo(std::size_t bin) const {
  REAP_EXPECTS(bin < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double LinearHistogram::bin_hi(std::size_t bin) const {
  REAP_EXPECTS(bin < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bin + 1) /
                   static_cast<double>(counts_.size());
}

}  // namespace reap::common
