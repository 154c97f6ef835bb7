#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ssdk {

void SampleSet::merge(const SampleSet& other) {
  if (other.samples_.empty()) return;
  if (samples_.empty()) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

void SampleSet::restore(std::vector<double> samples) {
  samples_ = std::move(samples);
  sum_ = 0.0;
  min_ = max_ = 0.0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const double x = samples_[i];
    if (i == 0) {
      min_ = max_ = x;
    } else if (x < min_) {
      min_ = x;
    } else if (x > max_) {
      max_ = x;
    }
    sum_ += x;
  }
}

double select_percentile(std::span<double> values, double p, double max) {
  assert(!values.empty());
  assert(p >= 0.0 && p <= 100.0);
  const std::size_t n = values.size();
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= n) return max;
  // Two order statistics via selection: O(n) per query instead of a full
  // sort.
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double low = *nth;
  const double high = *std::min_element(nth + 1, values.end());
  return low * (1.0 - frac) + high * frac;
}

double SampleSet::percentile(double p) const {
  assert(!samples_.empty());
  // Selection reorders, so it runs on a scratch copy: the sample order is
  // never disturbed.
  scratch_.assign(samples_.begin(), samples_.end());
  return select_percentile(scratch_, p, max_);
}

std::string summarize(const SampleSet& s) {
  std::ostringstream os;
  if (s.empty()) {
    os << "n=0";
    return os.str();
  }
  os << "n=" << s.count() << " mean=" << s.mean() << " p50=" << s.median()
     << " p99=" << s.percentile(99.0) << " max=" << s.max();
  return os.str();
}

}  // namespace ssdk
