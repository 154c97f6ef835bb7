// Keeper robustness under power loss and bad re-partitions.
//
// Two behaviours pinned here (DESIGN.md §14): after a power cut the
// keeper abandons the pre-crash partition and re-enters Algorithm 2's
// collection phase on the safe Shared allocation; and the p99 watchdog
// rolls back a re-partition that makes tail latency worse than the
// incumbent, vetoing the regressor.
#include "core/keeper.hpp"

#include <gtest/gtest.h>

#include "telemetry/tracer.hpp"
#include "trace/mixer.hpp"
#include "trace/synthetic.hpp"

namespace ssdk::core {
namespace {

/// Allocator that always answers with the given strategy index.
ChannelAllocator constant_allocator(const StrategySpace& space,
                                    std::uint32_t winner) {
  nn::Matrix w(kFeatureDim, space.size());
  nn::Matrix b(1, space.size());
  b(0, winner) = 10.0;
  std::vector<nn::DenseLayer> layers;
  layers.emplace_back(std::move(w), std::move(b),
                      nn::Activation::kIdentity);
  nn::StandardScaler scaler;
  scaler.set_parameters(std::vector<double>(kFeatureDim, 0.0),
                        std::vector<double>(kFeatureDim, 1.0));
  return ChannelAllocator(nn::Mlp(std::move(layers)), std::move(scaler),
                          space);
}

std::vector<sim::IoRequest> four_tenant_mix(std::uint64_t requests_each,
                                            std::uint64_t address_space = 4096) {
  std::vector<trace::Workload> workloads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    trace::SyntheticSpec spec;
    spec.write_fraction = t % 2 == 0 ? 0.9 : 0.1;
    spec.request_count = requests_each;
    spec.intensity_rps = 5000.0;
    spec.address_space_pages = address_space;
    spec.seed = 100 + t;
    workloads.push_back(trace::generate_synthetic(spec));
  }
  return trace::mix_workloads(workloads);
}

TEST(KeeperPower, PowerCutReentersCollectionOnShared) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(
      space, static_cast<std::uint32_t>(space.index_of("4:2:1:1")));
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;

  // Cut power at 100ms — after the initial switch at ~50ms — and let the
  // device recover in place and finish the workload. Few pages per unit
  // keep the modeled mount scan short, so the post-recovery collection
  // window still elapses inside the trace.
  ssd::SsdOptions options;
  options.power.enabled = true;
  options.power.cut_at_time = 100 * kMillisecond;
  options.power.auto_recover = true;
  options.geometry.blocks_per_plane = 32;
  options.geometry.pages_per_block = 16;

  ssd::Ssd device{options};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  // ~300ms of arrivals per tenant on a small logical footprint.
  device.submit(four_tenant_mix(1500, 128));
  device.run_to_completion();

  EXPECT_EQ(device.metrics().counters().power_cycles, 1u);
  EXPECT_EQ(keeper.power_recoveries(), 1u);

  // Decision log: initial switch to 4:2:1:1, the recovery fallback to
  // Shared at the cut, then a fresh collection window elapses and the
  // (constant) model re-applies 4:2:1:1.
  const auto& decisions = keeper.decisions();
  ASSERT_GE(decisions.size(), 3u);
  EXPECT_EQ(decisions[0].second.name(), "4:2:1:1");
  EXPECT_EQ(decisions[1].second.name(), "Shared");
  EXPECT_GE(decisions[1].first, options.power.cut_at_time);
  EXPECT_EQ(decisions[2].second.name(), "4:2:1:1");

  // The post-recovery collection window starts at the recovered clock,
  // not at the original schedule: the re-switch lands a full window
  // after the cut.
  EXPECT_GE(decisions[2].first,
            decisions[1].first + config.collect_window_ns);
}

TEST(KeeperPower, WatchdogRollsBackRegressingRepartition) {
  const auto space = StrategySpace::for_tenants(4);
  // A deliberately terrible answer for an even four-way mix: tenant 0
  // gets five channels, the rest one each.
  const auto allocator = constant_allocator(
      space, static_cast<std::uint32_t>(space.index_of("5:1:1:1")));
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;
  config.watchdog_window_ns = 50 * kMillisecond;
  config.rollback_p99_ratio = 1.05;

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(1500));
  device.run_to_completion();

  ASSERT_TRUE(keeper.switched());
  // The squeeze on tenants 1-3 blows the p99 budget; the watchdog
  // restores the incumbent (Shared) and records the rollback.
  EXPECT_EQ(keeper.rollbacks(), 1u);
  ASSERT_TRUE(keeper.chosen_strategy().has_value());
  EXPECT_EQ(keeper.chosen_strategy()->name(), "Shared");
  for (sim::TenantId t = 0; t < 4; ++t) {
    EXPECT_EQ(device.ftl().tenant_channels(t).size(), 8u)
        << "tenant " << t << " not restored to the shared allocation";
  }
}

TEST(KeeperPower, WatchdogKeepsSwitchUnderLenientThreshold) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(
      space, static_cast<std::uint32_t>(space.index_of("5:1:1:1")));
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;
  config.watchdog_window_ns = 50 * kMillisecond;
  config.rollback_p99_ratio = 100.0;  // nothing short of a meltdown rolls back

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(1500));
  device.run_to_completion();

  ASSERT_TRUE(keeper.switched());
  EXPECT_EQ(keeper.rollbacks(), 0u);
  EXPECT_EQ(keeper.chosen_strategy()->name(), "5:1:1:1");
  EXPECT_EQ(device.ftl().tenant_channels(0).size(), 5u);
}

// Every decision the keeper logs reaches an attached tracer, in order, at
// the same time and naming the same strategy — the watchdog rollback and
// the power-loss re-entry included, both of which count as a change.
TEST(KeeperPower, DecisionsReachAttachedTracerOnEveryPath) {
  const auto space = StrategySpace::for_tenants(4);
  const auto expect_mirrored = [](const SsdKeeper& keeper,
                                  const telemetry::Tracer& tracer) {
    const auto& decisions = keeper.decisions();
    const auto& traced = tracer.decisions();
    ASSERT_EQ(traced.size(), decisions.size());
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      EXPECT_EQ(traced[i].time, decisions[i].first) << i;
      EXPECT_EQ(traced[i].strategy, decisions[i].second.name()) << i;
    }
  };

  {
    SCOPED_TRACE("watchdog rollback");
    const auto allocator = constant_allocator(
        space, static_cast<std::uint32_t>(space.index_of("5:1:1:1")));
    KeeperConfig config;
    config.collect_window_ns = 50 * kMillisecond;
    config.watchdog_window_ns = 50 * kMillisecond;
    config.rollback_p99_ratio = 1.05;
    telemetry::Tracer tracer;
    ssd::Ssd device{ssd::SsdOptions{}};
    device.set_tracer(&tracer);
    SsdKeeper keeper(allocator, config);
    keeper.attach(device);
    device.submit(four_tenant_mix(1500));
    device.run_to_completion();
    ASSERT_EQ(keeper.rollbacks(), 1u);
    expect_mirrored(keeper, tracer);
    ASSERT_EQ(tracer.decisions().size(), 2u);
    const telemetry::KeeperDecision& rollback = tracer.decisions()[1];
    EXPECT_EQ(rollback.strategy, "Shared");
    EXPECT_TRUE(rollback.changed);
    EXPECT_EQ(rollback.features.rfind("watchdog rollback of 5:1:1:1", 0), 0u)
        << rollback.features;
  }

  {
    SCOPED_TRACE("power-loss re-entry");
    const auto allocator = constant_allocator(
        space, static_cast<std::uint32_t>(space.index_of("4:2:1:1")));
    KeeperConfig config;
    config.collect_window_ns = 50 * kMillisecond;
    ssd::SsdOptions options;
    options.power.enabled = true;
    options.power.cut_at_time = 100 * kMillisecond;
    options.power.auto_recover = true;
    options.geometry.blocks_per_plane = 32;
    options.geometry.pages_per_block = 16;
    telemetry::Tracer tracer;
    ssd::Ssd device{options};
    device.set_tracer(&tracer);
    SsdKeeper keeper(allocator, config);
    keeper.attach(device);
    device.submit(four_tenant_mix(1500, 128));
    device.run_to_completion();
    ASSERT_EQ(keeper.power_recoveries(), 1u);
    expect_mirrored(keeper, tracer);
    ASSERT_GE(tracer.decisions().size(), 3u);
    const telemetry::KeeperDecision& recovery = tracer.decisions()[1];
    EXPECT_EQ(recovery.strategy, "Shared");
    EXPECT_TRUE(recovery.changed);
    EXPECT_EQ(recovery.features,
              "power-loss recovery: re-entering collection");
  }
}

}  // namespace
}  // namespace ssdk::core
