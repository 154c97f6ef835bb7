#include "core/keeper.hpp"

#include <gtest/gtest.h>

#include <limits>

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

std::vector<sim::IoRequest> four_tenant_mix(std::uint64_t requests_each) {
  std::vector<trace::Workload> workloads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    trace::SyntheticSpec spec;
    spec.write_fraction = t % 2 == 0 ? 0.9 : 0.1;
    spec.request_count = requests_each;
    spec.intensity_rps = 5000.0;
    spec.address_space_pages = 4096;
    spec.seed = 100 + t;
    workloads.push_back(trace::generate_synthetic(spec));
  }
  return trace::mix_workloads(workloads);
}

TEST(Keeper, SwitchesAfterCollectionWindow) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(
      space, static_cast<std::uint32_t>(space.index_of("4:2:1:1")));
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(1000));
  device.run_to_completion();

  ASSERT_TRUE(keeper.switched());
  EXPECT_EQ(keeper.chosen_strategy()->name(), "4:2:1:1");
  // The device ends up partitioned 4:2:1:1 across tenants.
  std::size_t total_channels = 0;
  for (sim::TenantId t = 0; t < 4; ++t) {
    total_channels += device.ftl().tenant_channels(t).size();
  }
  EXPECT_EQ(total_channels, 8u);
}

TEST(Keeper, MeasuredFeaturesReflectWindowOnly) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(space, 0);
  KeeperConfig config;
  config.collect_window_ns = 100 * kMillisecond;

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(800));
  device.run_to_completion();

  ASSERT_TRUE(keeper.measured_features().has_value());
  const MixFeatures& f = *keeper.measured_features();
  // Tenants 0 and 2 are write-dominated, 1 and 3 read-dominated.
  EXPECT_EQ(f.read_dominated[0], 0);
  EXPECT_EQ(f.read_dominated[1], 1);
  EXPECT_EQ(f.read_dominated[2], 0);
  EXPECT_EQ(f.read_dominated[3], 1);
  double sum = 0.0;
  for (const double p : f.proportion) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Keeper, HybridTogglesPageAllocationModes) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(space, 0);
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;
  config.hybrid_page_allocation = true;

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(1000));
  device.run_to_completion();

  EXPECT_EQ(device.ftl().tenant_alloc_mode(0), ftl::AllocMode::kDynamic);
  EXPECT_EQ(device.ftl().tenant_alloc_mode(1), ftl::AllocMode::kStatic);
}

TEST(Keeper, RunWithKeeperThrowsWhenWindowNeverElapses) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(space, 0);
  KeeperConfig config;
  config.collect_window_ns = 3600 * kSecond;  // longer than the workload
  EXPECT_THROW(run_with_keeper(four_tenant_mix(200), allocator, config,
                               ssd::SsdOptions{}),
               std::runtime_error);
}

TEST(Keeper, RunWithKeeperReturnsConsistentSummary) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(space, 0);
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;
  const KeeperRunResult result = run_with_keeper(
      four_tenant_mix(1000), allocator, config, ssd::SsdOptions{});
  EXPECT_EQ(result.strategy.name(), "Shared");
  EXPECT_GT(result.run.total_us, 0.0);
  EXPECT_EQ(result.run.per_tenant.size(), 4u);
}

TEST(Keeper, RunWithKeeperDegradesGracefullyOnDeviceFull) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(space, 0);
  KeeperConfig config;
  config.collect_window_ns = 1 * kMillisecond;
  // Tiny geometry with GC off: the mix must exhaust the device, but only
  // after the collection window has elapsed and the keeper has switched.
  ssd::SsdOptions options;
  options.geometry = sim::Geometry::tiny();
  options.gc_enabled = false;
  KeeperRunResult result;
  ASSERT_NO_THROW(result = run_with_keeper(four_tenant_mix(2000), allocator,
                                           config, options));
  EXPECT_TRUE(result.run.device_full);
  EXPECT_FALSE(result.run.abort_reason.empty());
  EXPECT_EQ(result.run.counters.failed_requests, 1u);
  EXPECT_EQ(result.strategy.name(), "Shared");
}

TEST(Keeper, WhatIfMeasuresTopKAndAppliesMeasuredBest) {
  const auto space = StrategySpace::for_tenants(4);
  // The constant allocator biases one strategy; the remaining top-k slots
  // fall to the lowest indices via the deterministic tie-break.
  const auto allocator = constant_allocator(
      space, static_cast<std::uint32_t>(space.index_of("4:2:1:1")));
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;
  config.what_if_top_k = 3;

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(1000));
  device.run_to_completion();

  ASSERT_TRUE(keeper.switched());
  const auto& measured = keeper.what_if_measurements();
  ASSERT_EQ(measured.size(), 3u);
  // The model's argmax leads the candidate list.
  EXPECT_EQ(measured.front().first, space.index_of("4:2:1:1"));
  // The applied strategy is the measured minimum, not necessarily the
  // model's argmax.
  std::uint32_t best = measured.front().first;
  double best_score = measured.front().second;
  for (const auto& [index, score] : measured) {
    EXPECT_GT(score, 0.0);
    if (score < best_score) {
      best = index;
      best_score = score;
    }
  }
  EXPECT_EQ(keeper.chosen_strategy()->name(), space.at(best).name());
}

/// When every what-if fork fills the device, all trials score +infinity
/// and the keeper applies the allocator's first candidate.
TEST(Keeper, WhatIfAllTrialsFullKeepsFirstCandidate) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(
      space, static_cast<std::uint32_t>(space.index_of("4:2:1:1")));
  KeeperConfig config;
  config.collect_window_ns = 1 * kMillisecond;
  config.what_if_top_k = 3;
  // 8 channels of 32 pages each with GC off: the rest of the mix fits
  // under no strategy.
  ssd::SsdOptions options;
  options.geometry = sim::Geometry::tiny();
  options.geometry.channels = 8;
  options.geometry.blocks_per_plane = 4;
  options.gc_enabled = false;

  ssd::Ssd device{options};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(2000));
  EXPECT_THROW(device.run_to_completion(), ftl::DeviceFullError);

  ASSERT_TRUE(keeper.switched());
  const auto& measured = keeper.what_if_measurements();
  ASSERT_EQ(measured.size(), 3u);
  EXPECT_EQ(measured.front().first, space.index_of("4:2:1:1"));
  for (const auto& [index, score] : measured) {
    EXPECT_EQ(score, std::numeric_limits<double>::infinity())
        << space.at(index).name();
  }
  EXPECT_EQ(keeper.chosen_strategy()->name(), "4:2:1:1");
}

TEST(Keeper, WhatIfDisabledLeavesMeasurementsEmpty) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(space, 0);
  KeeperConfig config;
  config.collect_window_ns = 50 * kMillisecond;

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(600));
  device.run_to_completion();
  ASSERT_TRUE(keeper.switched());
  EXPECT_TRUE(keeper.what_if_measurements().empty());
}

TEST(Keeper, SwitchHappensOnceOnly) {
  const auto space = StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(space, 2);
  KeeperConfig config;
  config.collect_window_ns = 10 * kMillisecond;

  ssd::Ssd device{ssd::SsdOptions{}};
  SsdKeeper keeper(allocator, config);
  keeper.attach(device);
  device.submit(four_tenant_mix(1500));
  device.run_to_completion();
  EXPECT_TRUE(keeper.switched());
  // Manually re-partition; the keeper must not override it afterwards.
  device.set_tenant_channels(0, {0});
  EXPECT_EQ(device.ftl().tenant_channels(0).size(), 1u);
}

}  // namespace
}  // namespace ssdk::core
