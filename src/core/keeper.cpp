#include "core/keeper.hpp"

#include <stdexcept>

#include "core/trial.hpp"

namespace ssdk::core {

namespace {

/// Completions each side of a watchdog comparison must hold before the
/// watchdog judges a switch.
constexpr std::uint64_t kWatchdogMinSamples = 32;

}  // namespace

SsdKeeper::SsdKeeper(const ChannelAllocator& allocator, KeeperConfig config)
    : allocator_(allocator),
      config_(config),
      window_end_(config.collect_window_ns) {}

void SsdKeeper::attach(ssd::Ssd& device) {
  device.set_arrival_hook([this, &device](const sim::IoRequest& request) {
    on_arrival(device, request);
  });
  device.set_completion_hook([this, &device](const sim::Completion& c) {
    on_completion(device, c);
  });
  device.set_power_hook([this, &device]() { on_power_up(device); });
}

std::optional<Strategy> SsdKeeper::chosen_strategy() const {
  if (decisions_.empty()) return std::nullopt;
  return decisions_.back().second;
}

std::size_t SsdKeeper::strategy_changes() const {
  if (decisions_.empty()) return 0;
  std::size_t changes = 1;  // the initial switch
  for (std::size_t i = 1; i < decisions_.size(); ++i) {
    if (!(decisions_[i].second == decisions_[i - 1].second)) ++changes;
  }
  return changes;
}

std::uint32_t SsdKeeper::measure_best(
    const ssd::Ssd& device, std::span<const std::uint32_t> candidates,
    std::span<const TenantProfile> profiles) {
  what_if_.clear();
  const auto scores =
      run_trials(nullptr, candidates.size(), [&](std::size_t i) {
        return score_fork_trial(device, [&](ssd::Ssd& forked) {
          configure_ssd(forked, allocator_.space().at(candidates[i]),
                        profiles, config_.hybrid_page_allocation);
        });
      });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    what_if_.emplace_back(candidates[i], scores[i]);
  }
  return candidates[first_argmin(scores)];
}

void SsdKeeper::apply(ssd::Ssd& device, SimTime at) {
  const double window_s =
      static_cast<double>(initial_done_ ? config_.repredict_interval_ns
                                        : config_.collect_window_ns) /
      1e9;
  features_ = collector_.finalize(window_s);
  const auto profiles = features_->profiles(allocator_.space().tenants());
  last_profiles_ = profiles;
  Strategy strategy;
  if (config_.what_if_top_k >= 2) {
    const auto candidates =
        allocator_.predict_top_k(*features_, config_.what_if_top_k);
    strategy = allocator_.space().at(
        measure_best(device, candidates, profiles));
  } else {
    strategy = allocator_.predict(*features_);
  }
  const Strategy incumbent = decisions_.empty() ? allocator_.space().shared()
                                                : decisions_.back().second;
  if (vetoed_ && strategy == *vetoed_) {
    // The watchdog rolled this strategy back last window; keep the
    // incumbent for one more window instead of re-applying it.
    strategy = incumbent;
    vetoed_.reset();
  }
  const bool changed =
      decisions_.empty() || !(strategy == decisions_.back().second);
  if (changed) {
    configure_ssd(device, strategy, profiles,
                  config_.hybrid_page_allocation);
    if (config_.watchdog_window_ns > 0) start_watch(at, incumbent, strategy);
  }
  decide(device, at, strategy, features_->describe(), changed);
  collector_.reset();
}

void SsdKeeper::decide(ssd::Ssd& device, SimTime at, const Strategy& strategy,
                       std::string features, bool changed) {
  if (auto* tracer = device.tracer()) {
    telemetry::KeeperDecision decision;
    decision.time = at;
    decision.strategy = strategy.name();
    decision.features = std::move(features);
    decision.changed = changed;
    tracer->record_decision(std::move(decision));
  }
  decisions_.emplace_back(at, strategy);
}

void SsdKeeper::prune_recent(SimTime now) {
  const Duration window = config_.watchdog_window_ns;
  while (!recent_lat_.empty() && recent_lat_.front().first + window < now) {
    recent_lat_.pop_front();
  }
}

void SsdKeeper::start_watch(SimTime at, const Strategy& incumbent,
                            const Strategy& candidate) {
  prune_recent(at);
  SampleSet baseline;
  for (const auto& [finish, us] : recent_lat_) baseline.add(us);
  watch_prev_ = incumbent;
  watch_next_ = candidate;
  watch_baseline_count_ = baseline.count();
  watch_baseline_p99_ = baseline.empty() ? 0.0 : baseline.percentile(99.0);
  watch_post_ = SampleSet{};
  watch_until_ = at + config_.watchdog_window_ns;
  watching_ = true;
}

void SsdKeeper::on_completion(ssd::Ssd& device,
                              const sim::Completion& c) {
  if (config_.watchdog_window_ns == 0) return;
  if (c.type != sim::OpType::kRead && c.type != sim::OpType::kWrite) return;
  const double us = to_us(c.latency());
  prune_recent(c.finish);
  recent_lat_.emplace_back(c.finish, us);
  if (!watching_) return;
  if (c.finish < watch_until_) {
    watch_post_.add(us);
    return;
  }
  // The watch window just closed; judge the switch on what it collected.
  watching_ = false;
  if (watch_post_.count() < kWatchdogMinSamples ||
      watch_baseline_count_ < kWatchdogMinSamples ||
      watch_baseline_p99_ <= 0.0) {
    return;  // not enough evidence either way — keep the new strategy
  }
  const double post_p99 = watch_post_.percentile(99.0);
  if (post_p99 <= config_.rollback_p99_ratio * watch_baseline_p99_) return;

  // Regression confirmed: restore the incumbent and veto the regressor so
  // the next re-prediction cannot immediately re-apply it.
  configure_ssd(device, watch_prev_, recovery_profiles(),
                config_.hybrid_page_allocation);
  vetoed_ = watch_next_;
  ++rollbacks_;
  decide(device, c.finish, watch_prev_,
         "watchdog rollback of " + watch_next_.name() + ": p99 " +
             std::to_string(post_p99) + "us vs baseline " +
             std::to_string(watch_baseline_p99_) + "us",
         true);
}

std::vector<TenantProfile> SsdKeeper::recovery_profiles() const {
  if (!last_profiles_.empty()) return last_profiles_;
  std::vector<TenantProfile> profiles(allocator_.space().tenants());
  for (std::size_t t = 0; t < profiles.size(); ++t) {
    profiles[t].id = static_cast<sim::TenantId>(t);
    profiles[t].relative_intensity =
        1.0 / static_cast<double>(profiles.size());
  }
  return profiles;
}

void SsdKeeper::on_power_up(ssd::Ssd& device) {
  // The pre-crash partition was tuned to a mix the crash may have ended,
  // and any in-progress collection window died with the queues. Re-enter
  // Algorithm 2 from the top: safe Shared allocation with the default
  // (static) page placement and a fresh window from the recovered clock.
  const Strategy shared = allocator_.space().shared();
  configure_ssd(device, shared, recovery_profiles(), false);
  collector_.reset();
  initial_done_ = false;
  window_end_ = device.now() + config_.collect_window_ns;
  watching_ = false;
  recent_lat_.clear();
  vetoed_.reset();
  ++power_recoveries_;
  decide(device, device.now(), shared,
         "power-loss recovery: re-entering collection", true);
}

void SsdKeeper::on_arrival(ssd::Ssd& device,
                           const sim::IoRequest& request) {
  if (request.arrival >= window_end_ && collector_.observed() > 0) {
    // Window boundary crossed: decide (Algorithm 2 line 8, or a periodic
    // re-prediction), then open the next window when in periodic mode.
    apply(device, request.arrival);
    if (!initial_done_) {
      initial_done_ = true;
      window_end_ = config_.repredict_interval_ns == 0
                        ? ~SimTime{0}
                        : request.arrival + config_.repredict_interval_ns;
    } else {
      while (window_end_ <= request.arrival) {
        window_end_ += config_.repredict_interval_ns;
      }
    }
  }
  if (window_end_ != ~SimTime{0}) collector_.observe(request);
}

KeeperRunResult run_with_keeper(std::span<const sim::IoRequest> requests,
                                const ChannelAllocator& allocator,
                                const KeeperConfig& keeper_config,
                                const ssd::SsdOptions& ssd_options,
                                telemetry::Tracer* tracer) {
  ssd::Ssd device(ssd_options);
  if (tracer) device.set_tracer(tracer);
  SsdKeeper keeper(allocator, keeper_config);
  keeper.attach(device);
  device.submit(requests);
  RunResult run;
  try {
    device.run_to_completion();
    run = summarize(device);
  } catch (const ftl::DeviceFullError& e) {
    run = summarize_device_full(device, e, "keeper");
  }
  if (!keeper.switched()) {
    throw std::runtime_error(
        "keeper: collection window never elapsed; shorten "
        "collect_window_ns or lengthen the workload");
  }
  return KeeperRunResult{std::move(run), *keeper.measured_features(),
                         *keeper.chosen_strategy(), keeper.decisions()};
}

}  // namespace ssdk::core
