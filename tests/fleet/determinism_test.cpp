// The fleet acceptance bar (ISSUE tentpole): a 32-device fleet run with
// the same seed must produce a bit-identical FleetResult at 1, 4 and 16
// worker threads, including with fault injection enabled on a device
// subset and with per-device keepers attached. Identity is compared via
// FleetResult::fingerprint(), which hashes every numeric field.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/allocator.hpp"
#include "core/strategy.hpp"
#include "fleet/fleet.hpp"
#include "nn/layer.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "sim/geometry.hpp"

namespace ssdk::fleet {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 4, 16};

FleetConfig fleet32_config() {
  FleetConfig config;
  config.devices = 32;
  config.slots_per_device = 2;
  config.epochs = 2;
  config.epoch_ns = 10 * kMillisecond;
  config.seed = 99;
  config.ssd.geometry = sim::Geometry::small();
  config.isolated_baseline = false;  // exercised in DeterministicWithBaseline
  return config;
}

/// Allocator that always answers with the given strategy index — enough
/// to exercise the keeper path deterministically (tests/core/keeper_test
/// uses the same construction).
core::ChannelAllocator constant_allocator(const core::StrategySpace& space,
                                          std::uint32_t winner) {
  nn::Matrix w(core::kFeatureDim, space.size());
  nn::Matrix b(1, space.size());
  b(0, winner) = 10.0;
  std::vector<nn::DenseLayer> layers;
  layers.emplace_back(std::move(w), std::move(b), nn::Activation::kIdentity);
  nn::StandardScaler scaler;
  scaler.set_parameters(std::vector<double>(core::kFeatureDim, 0.0),
                        std::vector<double>(core::kFeatureDim, 1.0));
  return core::ChannelAllocator(nn::Mlp(std::move(layers)),
                                std::move(scaler), space);
}

std::vector<std::uint64_t> fingerprints_across_threads(
    const FleetConfig& config, std::span<const TenantSpec> specs,
    const PlacementPolicy& policy) {
  std::vector<std::uint64_t> prints;
  for (const std::size_t threads : kThreadCounts) {
    prints.push_back(run_fleet(config, specs, policy, threads).fingerprint());
  }
  return prints;
}

TEST(FleetDeterminism, Fleet32BitIdenticalAt1_4_16Threads) {
  const FleetConfig config = fleet32_config();
  const auto specs =
      make_tenant_specs(48, config.devices, config.epoch_ns);
  WorkloadAwarePlacement policy;
  const auto prints = fingerprints_across_threads(config, specs, policy);
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
  EXPECT_NE(prints[0], 0u);
}

// Consolidation fans one victim's stay and destination trials out on the
// pool. The records must not depend on which worker scored which trial:
// compare them field by field, not only through the fingerprint.
TEST(FleetDeterminism, MigrationTrialsIdenticalAt1_4_16Threads) {
  FleetConfig config = fleet32_config();
  config.devices = 8;
  config.epochs = 3;
  // Round-robin stacks the two heavy writers (tenants 0 and 8) on device
  // 0, and devices 4..7 keep a free slot to migrate into.
  const auto specs = make_tenant_specs(12, config.devices, config.epoch_ns);
  RoundRobinPlacement policy;

  std::vector<std::vector<MigrationRecord>> runs;
  for (const std::size_t threads : kThreadCounts) {
    runs.push_back(run_fleet(config, specs, policy, threads).migrations);
  }
  const auto& base = runs.front();
  ASSERT_FALSE(base.empty());
  EXPECT_GE(base.front().trials.size(), 2u);

  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE(testing::Message() << kThreadCounts[r] << " threads");
    ASSERT_EQ(runs[r].size(), base.size());
    for (std::size_t m = 0; m < base.size(); ++m) {
      const MigrationRecord& a = base[m];
      const MigrationRecord& b = runs[r][m];
      EXPECT_EQ(b.epoch, a.epoch);
      EXPECT_EQ(b.tenant, a.tenant);
      EXPECT_EQ(b.from_device, a.from_device);
      EXPECT_EQ(b.from_slot, a.from_slot);
      EXPECT_EQ(b.to_device, a.to_device);
      EXPECT_EQ(b.to_slot, a.to_slot);
      EXPECT_EQ(b.stay_score_us, a.stay_score_us);
      EXPECT_EQ(b.move_score_us, a.move_score_us);
      ASSERT_EQ(b.trials.size(), a.trials.size());
      for (std::size_t t = 0; t < a.trials.size(); ++t) {
        EXPECT_EQ(b.trials[t].device, a.trials[t].device);
        EXPECT_EQ(b.trials[t].score_us, a.trials[t].score_us);
      }
    }
  }
}

TEST(FleetDeterminism, FaultInjectionOnSubsetStaysBitIdentical) {
  FleetConfig config = fleet32_config();
  // Every 8th device (0, 8, 16, 24) runs with a noisy fault model.
  config.faulty_device_stride = 8;
  config.faults.read_ber = 1e-6;
  config.faults.read_ber_per_pe = 1e-9;
  config.faults.program_fail = 1e-4;
  config.faults.seed = 1234;
  const auto specs =
      make_tenant_specs(48, config.devices, config.epoch_ns);
  LeastLoadedPlacement policy;
  const auto prints = fingerprints_across_threads(config, specs, policy);
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);

  // The fault model changed the simulation, not just a flag: the faulty
  // subset must be visible in the result.
  const auto result = run_fleet(config, specs, policy, 4);
  std::uint32_t faulty = 0;
  for (const auto& d : result.device_results) {
    if (d.faulty) {
      ++faulty;
      EXPECT_EQ(d.device % 8, 0u);
    }
  }
  EXPECT_EQ(faulty, 4u);
}

TEST(FleetDeterminism, KeeperAttachedFleetStaysBitIdentical) {
  FleetConfig config = fleet32_config();
  config.devices = 8;
  const auto space = core::StrategySpace::for_tenants(4);
  const auto allocator = constant_allocator(
      space, static_cast<std::uint32_t>(space.index_of("4:2:1:1")));
  config.allocator = &allocator;
  config.keeper.collect_window_ns = 2 * kMillisecond;
  const auto specs =
      make_tenant_specs(16, config.devices, config.epoch_ns);
  RoundRobinPlacement policy;
  const auto prints = fingerprints_across_threads(config, specs, policy);
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);

  // Keeper runs diverge from keeper-less runs (the allocator reshapes
  // channel ownership mid-epoch).
  FleetConfig bare = config;
  bare.allocator = nullptr;
  EXPECT_NE(run_fleet(bare, specs, policy, 4).fingerprint(), prints[0]);
}

TEST(FleetDeterminism, DeterministicWithBaseline) {
  FleetConfig config = fleet32_config();
  config.devices = 6;
  config.isolated_baseline = true;
  const auto specs =
      make_tenant_specs(12, config.devices, config.epoch_ns);
  WorkloadAwarePlacement policy;
  const auto prints = fingerprints_across_threads(config, specs, policy);
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
}

TEST(FleetDeterminism, SeedAndPolicyChangeTheResult) {
  FleetConfig config = fleet32_config();
  config.devices = 6;
  const auto specs =
      make_tenant_specs(12, config.devices, config.epoch_ns);
  WorkloadAwarePlacement aware;
  RoundRobinPlacement rr;
  const auto base = run_fleet(config, specs, aware, 4).fingerprint();
  FleetConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  EXPECT_NE(run_fleet(reseeded, specs, aware, 4).fingerprint(), base);
  EXPECT_NE(run_fleet(config, specs, rr, 4).fingerprint(), base);
}

}  // namespace
}  // namespace ssdk::fleet
