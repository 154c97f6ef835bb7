// Batch statistics used across the simulator and the benchmark harness:
// percentile selection over collected samples and the sample container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ssdk {

/// Linear-interpolated percentile, p in [0, 100], of a non-empty sample
/// list, selected in place: `values` is reordered. `max` must be the
/// largest value; it is the answer when p lands on the last rank. The two
/// order statistics are nth_element's pick and the minimum above it —
/// exact order statistics, so the result matches the sorted-array formula
/// bit for bit whatever order `values` arrives in. SampleSet::percentile
/// and the device-wide percentiles of sim::MetricsCollector both use it.
double select_percentile(std::span<double> values, double p, double max);

/// Collects raw samples and answers percentile queries. Intended for
/// latency distributions where the full sample set fits in memory.
///
/// sum/mean/min/max are maintained incrementally and cost O(1); percentile
/// selects order statistics out of place (the sample order is never
/// disturbed, so samples() is always insertion order). Note merge() adds
/// the other set's running sum in one step, so a merged mean can differ
/// from re-accumulating the concatenated samples by rounding only.
class SampleSet {
 public:
  void add(double x) {
    if (samples_.empty()) {
      min_ = max_ = x;
    } else if (x < min_) {
      min_ = x;
    } else if (x > max_) {
      max_ = x;
    }
    sum_ += x;
    samples_.push_back(x);
  }
  void reserve(std::size_t n) { samples_.reserve(n); }
  void merge(const SampleSet& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const {
    return samples_.empty()
               ? 0.0
               : sum_ / static_cast<double>(samples_.size());
  }
  double sum() const { return sum_; }
  double min() const { return samples_.empty() ? 0.0 : min_; }
  double max() const { return samples_.empty() ? 0.0 : max_; }

  /// Linear-interpolated percentile, p in [0, 100]. Requires non-empty set.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// Samples in insertion order.
  const std::vector<double>& samples() const { return samples_; }

  /// Replace the sample set wholesale (snapshot restore). The samples are
  /// taken in the given order; the running aggregates are rebuilt by one
  /// left-to-right pass, matching what add() in that order would produce.
  void restore(std::vector<double> samples);

 private:
  // Snapshot note: owners serialize via samples() and restore(); restore()
  // rebuilds every running aggregate from the sample list.
  // ssdk-snap: skip(samples_): serialized through samples()/restore() by owners
  std::vector<double> samples_;
  // ssdk-snap: skip(sum_): running aggregate rebuilt by restore()
  double sum_ = 0.0;
  // ssdk-snap: skip(min_): running aggregate rebuilt by restore()
  double min_ = 0.0;
  // ssdk-snap: skip(max_): running aggregate rebuilt by restore()
  double max_ = 0.0;
  // ssdk-snap: skip(scratch_): percentile scratch buffer, not state
  mutable std::vector<double> scratch_;  ///< percentile selection buffer
};

/// One-line human-readable summary: "n=... mean=... p50=... p99=... max=...".
std::string summarize(const SampleSet& s);

}  // namespace ssdk
