#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "fleet/report.hpp"
#include "util/csv.hpp"

namespace ssdk::fleet {
namespace {

FleetConfig small_config() {
  FleetConfig config;
  config.devices = 3;
  config.slots_per_device = 2;
  config.epochs = 2;
  config.epoch_ns = 15 * kMillisecond;
  config.seed = 42;
  config.isolated_baseline = false;
  return config;
}

TEST(EpochRecords, PureFunctionOfSeedTenantEpoch) {
  TenantSpec spec;
  spec.id = 3;
  spec.traffic.request_count = 400;
  spec.traffic.intensity_rps = 20'000.0;
  const Duration epoch = 10 * kMillisecond;

  const auto a = epoch_records(spec, 7, 2, epoch);
  const auto b = epoch_records(spec, 7, 2, epoch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].lpn, b[i].lpn);
  }
  // Confined to the epoch's absolute window.
  for (const auto& r : a) {
    EXPECT_GE(r.arrival, 2 * epoch);
    EXPECT_LT(r.arrival, 3 * epoch);
  }
  // Different epochs and seeds give different streams.
  const auto c = epoch_records(spec, 7, 3, epoch);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().lpn, c.front().lpn);
}

TEST(MakeTenantSpecs, StridePlacesHeavyWriters) {
  const auto specs = make_tenant_specs(8, 4, 20 * kMillisecond);
  ASSERT_EQ(specs.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(specs[i].id, i);
    if (i % 4 == 0) {
      EXPECT_GT(specs[i].traffic.write_fraction, 0.5) << i;
    }
  }
}

TEST(Fleet, RunsAndAccountsEveryTenant) {
  const FleetConfig config = small_config();
  const auto specs = make_tenant_specs(5, 0, config.epoch_ns);
  RoundRobinPlacement policy;
  const FleetResult result = run_fleet(config, specs, policy, 2);

  EXPECT_EQ(result.policy, "round_robin");
  EXPECT_EQ(result.devices, 3u);
  ASSERT_EQ(result.device_results.size(), 3u);
  ASSERT_EQ(result.tenant_results.size(), 5u);
  EXPECT_GT(result.total_requests, 0u);
  EXPECT_GT(result.aggregate_total_us, 0.0);
  for (const auto& d : result.device_results) {
    EXPECT_EQ(d.epoch_summaries.size(), config.epochs);
  }
  std::uint64_t tenant_requests = 0;
  for (const auto& t : result.tenant_results) {
    EXPECT_GT(t.reads + t.writes, 0u) << "tenant " << t.tenant;
    EXPECT_GT(t.total_us, 0.0);
    tenant_requests += t.reads + t.writes;
  }
  // Every completed host request is attributed to exactly one tenant
  // (bulk migration copies are charged to their tenant's slot as well).
  EXPECT_GE(tenant_requests, result.total_requests);
}

TEST(Fleet, IsolatedBaselineYieldsSlowdown) {
  FleetConfig config = small_config();
  config.isolated_baseline = true;
  const auto specs = make_tenant_specs(4, 2, config.epoch_ns);
  LeastLoadedPlacement policy;
  const FleetResult result = run_fleet(config, specs, policy, 2);
  EXPECT_GT(result.mean_slowdown, 0.0);
  for (const auto& t : result.tenant_results) {
    EXPECT_GT(t.isolated_total_us, 0.0);
    EXPECT_GT(t.slowdown, 0.0);
  }
}

TEST(Fleet, MigrationMovesTenantOffHotDevice) {
  // Two heavy writers collocated on device 0 by round-robin (stride 3 on
  // 3 devices), light readers elsewhere, and a free slot left on device 2:
  // device 0 must rank hot, and at least one boundary should commit a
  // fork-verified move.
  FleetConfig config = small_config();
  config.epochs = 3;
  config.migration.max_per_epoch = 1;
  const auto specs = make_tenant_specs(5, 3, config.epoch_ns);
  RoundRobinPlacement policy;
  const FleetResult result = run_fleet(config, specs, policy, 2);

  ASSERT_FALSE(result.migrations.empty());
  const auto& m = result.migrations.front();
  EXPECT_NE(m.from_device, m.to_device);
  EXPECT_LT(m.move_score_us, m.stay_score_us);
  EXPECT_FALSE(m.trials.empty());
  EXPECT_GT(m.footprint_pages, 0u);
  EXPECT_GE(m.footprint_pages, m.injected_pages);
  EXPECT_GT(m.modeled_cost_ns, 0);

  const auto& moved = result.tenant_results[m.tenant];
  EXPECT_EQ(moved.initial_device, m.from_device);
  EXPECT_GE(moved.migrations, 1u);
}

TEST(Fleet, MigrationCanBeDisabled) {
  FleetConfig config = small_config();
  config.epochs = 3;
  config.migration.enabled = false;
  const auto specs = make_tenant_specs(6, 3, config.epoch_ns);
  RoundRobinPlacement policy;
  const FleetResult result = run_fleet(config, specs, policy, 2);
  EXPECT_TRUE(result.migrations.empty());
  for (const auto& t : result.tenant_results) {
    EXPECT_EQ(t.initial_device, t.final_device);
  }
}

TEST(Fleet, RejectsInvalidConfigs) {
  const auto specs = make_tenant_specs(2, 0, 10 * kMillisecond);
  RoundRobinPlacement policy;
  FleetConfig config = small_config();
  config.devices = 0;
  EXPECT_THROW(run_fleet(config, specs, policy, 1), std::invalid_argument);
  config = small_config();
  config.slots_per_device = 5;
  EXPECT_THROW(run_fleet(config, specs, policy, 1), std::invalid_argument);
  config = small_config();
  config.epochs = 0;
  EXPECT_THROW(run_fleet(config, specs, policy, 1), std::invalid_argument);
  config = small_config();
  EXPECT_THROW(run_fleet(config, {}, policy, 1), std::invalid_argument);
  // Slots hold tenant ids that index the spec list, so ids must equal
  // positions: the tail of a larger population ({2, 3}) is rejected
  // instead of being read past its end.
  const auto four = make_tenant_specs(4, 0, 10 * kMillisecond);
  const std::vector<TenantSpec> tail(four.begin() + 2, four.end());
  EXPECT_THROW(run_fleet(config, tail, policy, 1), std::invalid_argument);
}

TEST(FleetReport, TablesAndCsvsCoverTheResult) {
  const FleetConfig config = small_config();
  const auto specs = make_tenant_specs(4, 0, config.epoch_ns);
  WorkloadAwarePlacement policy;
  const FleetResult result = run_fleet(config, specs, policy, 2);

  const std::string report = format_report(result);
  EXPECT_NE(report.find("workload_aware"), std::string::npos);
  EXPECT_NE(report.find("## Devices"), std::string::npos);
  EXPECT_NE(report.find("## Tenants"), std::string::npos);

  std::ostringstream devices, tenants, rollups;
  write_device_csv(devices, result);
  write_tenant_csv(tenants, result);
  write_rollup_csv(rollups, result);

  std::istringstream dev_in(devices.str());
  std::string line;
  std::getline(dev_in, line);
  const auto header = split_csv_line(line);
  std::size_t rows = 0;
  while (std::getline(dev_in, line)) {
    EXPECT_EQ(split_csv_line(line).size(), header.size());
    ++rows;
  }
  EXPECT_EQ(rows, config.devices);

  std::istringstream ten_in(tenants.str());
  std::getline(ten_in, line);
  rows = 0;
  while (std::getline(ten_in, line)) ++rows;
  EXPECT_EQ(rows, specs.size());

  std::istringstream roll_in(rollups.str());
  std::getline(roll_in, line);
  rows = 0;
  while (std::getline(roll_in, line)) ++rows;
  EXPECT_EQ(rows, static_cast<std::size_t>(config.devices) * config.epochs);
}

}  // namespace
}  // namespace ssdk::fleet
