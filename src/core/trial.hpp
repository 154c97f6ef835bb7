// Fork trials: the one seam for "what if this device changed now?".
// Algorithm 1's label sweep, the keeper's what-if decisions and fleet
// migration all fan independent trials out, merge them by index and keep
// the first best one, so their choices are the same at any thread count.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "ftl/ftl.hpp"
#include "sim/metrics.hpp"
#include "ssd/ssd.hpp"
#include "util/thread_pool.hpp"

namespace ssdk::core {

/// Run trial(i) for i in [0, n) and return the results merged by index:
/// on `pool` when it is non-null and n > 1, serially otherwise.
template <typename Trial,
          typename R = std::invoke_result_t<Trial&, std::size_t>>
std::vector<R> run_trials(ThreadPool* pool, std::size_t n, Trial&& trial) {
  if (pool != nullptr && n > 1) return parallel_map(*pool, n, trial);
  std::vector<R> results(n);
  for (std::size_t i = 0; i < n; ++i) results[i] = trial(i);
  return results;
}

/// Index of the first smallest of the non-empty `keys` under operator<:
/// ties, and all-+infinity keys, keep the lower index. Pair keys compare
/// their second field when the first ties.
template <typename Keys>
std::size_t first_argmin(const Keys& keys) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] < keys[best]) best = i;
  }
  return best;
}

/// Suffix-latency score of one what-if trial: fork `device`, let `apply`
/// change the fork (a strategy switch, injected requests), run it to
/// completion, and return the average read plus average write latency
/// (µs) of the pages completed after the fork point — the part of the run
/// the change can still influence, not the history it cannot. A trial
/// that fills the device scores +infinity. The keeper's top-k measurement
/// and fleet migration trials both score this way.
template <typename Apply>
double score_fork_trial(const ssd::Ssd& device, Apply&& apply) {
  // aggregate_sums reads the running sums in O(tenants) instead of
  // copying every latency sample.
  const sim::LatencySums before = device.metrics().aggregate_sums();
  const std::unique_ptr<ssd::Ssd> forked = device.fork();
  try {
    apply(*forked);
    forked->run_to_completion();
  } catch (const ftl::DeviceFullError&) {
    return std::numeric_limits<double>::infinity();
  }
  const sim::LatencySums after = forked->metrics().aggregate_sums();
  const double reads = static_cast<double>(after.reads - before.reads);
  const double writes = static_cast<double>(after.writes - before.writes);
  const double suffix_read =
      reads > 0.0 ? (after.read_sum_us - before.read_sum_us) / reads : 0.0;
  const double suffix_write =
      writes > 0.0 ? (after.write_sum_us - before.write_sum_us) / writes
                   : 0.0;
  return suffix_read + suffix_write;
}

}  // namespace ssdk::core
