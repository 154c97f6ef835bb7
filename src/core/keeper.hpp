// SSDKeeper online controller — the paper's Algorithm 2, plus an optional
// periodic re-prediction mode (DESIGN.md §8).
//
// For t < T (the feature-collection window) the device runs Shared with
// default page allocation while the features collector observes arrivals.
// At the first arrival with t >= T the keeper finalizes the features,
// queries the channel allocator, and re-partitions channels (optionally
// also switching per-tenant page-allocation modes — the hybrid allocator).
// Data written before the switch stays where it is; reads continue to find
// it via the mapping, exactly as a real FTL would behave.
//
// With `repredict_interval_ns` set, the keeper keeps collecting after the
// initial switch in rolling windows and re-applies the predicted strategy
// at each window boundary — adapting when the tenant mix drifts (the
// paper's "self-adapting" goal taken online).
//
// Two robustness additions (DESIGN.md §14):
//   * Power-loss recovery: attach() also installs the device's power hook.
//     After a power cut + recovery scan the keeper re-enters Algorithm 2
//     from the top — safe Shared allocation with default page placement,
//     fresh collection window from the recovered clock — because the
//     pre-crash partition was tuned to a mix the crash may have ended.
//   * p99 regression watchdog (`watchdog_window_ns` > 0): after every
//     re-partition the keeper compares the p99 completion latency of the
//     next window against the window before the switch; a regression
//     beyond `rollback_p99_ratio` reverts to the previous strategy and
//     vetoes the regressing one at the next re-prediction.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/features.hpp"
#include "core/runner.hpp"
#include "ssd/ssd.hpp"
#include "util/stats.hpp"
#include "util/time_types.hpp"

namespace ssdk::core {

struct KeeperConfig {
  /// Feature-collection window T.
  Duration collect_window_ns = 200 * kMillisecond;
  /// Enable the hybrid page allocator after the switch.
  bool hybrid_page_allocation = true;
  /// 0 = one-shot Algorithm 2. Otherwise the keeper re-collects features
  /// in rolling windows of this length and re-partitions whenever the
  /// prediction changes.
  Duration repredict_interval_ns = 0;
  /// What-if mode: at each decision point, fork() the device per top-k
  /// predicted strategy, measure each candidate on the remaining submitted
  /// work, and apply the measured best instead of trusting the argmax.
  /// 0 or 1 disables (pure Algorithm 2). Note the measurement horizon is
  /// the rest of the submitted trace and the forks start one request after
  /// the decision arrival (its page ops are not yet created when the
  /// arrival hook runs) — a deliberate heuristic, not an oracle.
  std::uint32_t what_if_top_k = 0;
  /// p99 regression watchdog. 0 disables. Otherwise, after every strategy
  /// *change*, read/write completions over the next `watchdog_window_ns`
  /// form a post-switch latency sample; if its p99 exceeds
  /// `rollback_p99_ratio` times the p99 of the same-length window before
  /// the switch (both sides holding at least 32 completions), the keeper
  /// reverts to the previous strategy and vetoes the regressing one at the
  /// next re-prediction.
  Duration watchdog_window_ns = 0;
  double rollback_p99_ratio = 1.25;
};

class SsdKeeper {
 public:
  SsdKeeper(const ChannelAllocator& allocator, KeeperConfig config);

  /// Install the keeper's hooks on a device: the arrival hook (feature
  /// collection + decisions), the completion hook (watchdog latency
  /// samples) and the power hook (post-recovery re-entry). The device must
  /// be driven (submit + run_to_completion) by the caller. Replaces any
  /// existing hooks of those kinds.
  void attach(ssd::Ssd& device);

  bool switched() const { return !decisions_.empty(); }
  /// Features measured over the most recent completed window.
  const std::optional<MixFeatures>& measured_features() const {
    return features_;
  }
  /// Strategy currently in force (the most recent decision).
  std::optional<Strategy> chosen_strategy() const;
  /// Every (switch time, strategy) decision, including re-predictions
  /// that confirmed the incumbent strategy.
  const std::vector<std::pair<SimTime, Strategy>>& decisions() const {
    return decisions_;
  }
  /// Number of decisions that changed the allocation.
  std::size_t strategy_changes() const;

  /// What-if measurements of the most recent decision: (strategy index,
  /// measured suffix latency us) in candidate order. Empty unless
  /// what_if_top_k >= 2.
  const std::vector<std::pair<std::uint32_t, double>>& what_if_measurements()
      const {
    return what_if_;
  }

  /// Re-partitions the watchdog reverted because they made p99 worse.
  std::size_t rollbacks() const { return rollbacks_; }
  /// Power-loss recoveries the keeper re-entered collection after.
  std::size_t power_recoveries() const { return power_recoveries_; }

 private:
  void on_arrival(ssd::Ssd& device, const sim::IoRequest& request);
  void on_completion(ssd::Ssd& device, const sim::Completion& completion);
  void on_power_up(ssd::Ssd& device);
  void apply(ssd::Ssd& device, SimTime at);
  /// Log a decision, and mirror it into the device's tracer when one is
  /// attached, so strategy switches show on the trace timeline next to
  /// the latency they caused.
  void decide(ssd::Ssd& device, SimTime at, const Strategy& strategy,
              std::string features, bool changed);
  /// Open a watchdog window over the just-applied switch.
  void start_watch(SimTime at, const Strategy& incumbent,
                   const Strategy& candidate);
  /// Drop latency samples older than one watchdog window before `now`.
  void prune_recent(SimTime now);
  /// Profiles to re-apply a strategy outside a decision point (rollback,
  /// power recovery): the last decision's profiles, or a uniform default
  /// before any decision exists.
  std::vector<TenantProfile> recovery_profiles() const;
  /// Fork the device per candidate, replay the remaining work under it,
  /// and return the index (into the strategy space) with the lowest
  /// measured suffix latency; ties and all-+infinity scores keep the
  /// first candidate, the allocator's most confident. Fills what_if_.
  std::uint32_t measure_best(const ssd::Ssd& device,
                             std::span<const std::uint32_t> candidates,
                             std::span<const TenantProfile> profiles);

  const ChannelAllocator& allocator_;
  KeeperConfig config_;
  FeaturesCollector collector_;
  SimTime window_end_;
  bool initial_done_ = false;
  std::optional<MixFeatures> features_;
  std::vector<std::pair<SimTime, Strategy>> decisions_;
  std::vector<std::pair<std::uint32_t, double>> what_if_;
  std::vector<TenantProfile> last_profiles_;

  // p99 regression watchdog state (active when watchdog_window_ns > 0).
  std::deque<std::pair<SimTime, double>> recent_lat_;  ///< (finish, us)
  bool watching_ = false;
  SimTime watch_until_ = 0;
  double watch_baseline_p99_ = 0.0;
  std::uint64_t watch_baseline_count_ = 0;
  Strategy watch_prev_;  ///< incumbent restored on rollback
  Strategy watch_next_;  ///< candidate under watch, vetoed on rollback
  SampleSet watch_post_;
  std::optional<Strategy> vetoed_;
  std::size_t rollbacks_ = 0;
  std::size_t power_recoveries_ = 0;
};

struct KeeperRunResult {
  RunResult run;
  MixFeatures features;
  Strategy strategy;  ///< strategy in force at the end of the run
  std::vector<std::pair<SimTime, Strategy>> decisions;
};

/// Convenience: run a mixed workload end-to-end under SSDKeeper control.
/// A device-full abort degrades gracefully (logged via util/logger; the
/// partial result carries device_full + abort_reason) as long as the
/// initial collection window had elapsed. `tracer` (optional, non-owning)
/// records the run's lifecycle spans and keeper decisions.
KeeperRunResult run_with_keeper(std::span<const sim::IoRequest> requests,
                                const ChannelAllocator& allocator,
                                const KeeperConfig& keeper_config,
                                const ssd::SsdOptions& ssd_options,
                                telemetry::Tracer* tracer = nullptr);

}  // namespace ssdk::core
