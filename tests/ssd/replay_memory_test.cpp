// Replay memory sized by what callers read: RunResult keeps per-tenant
// summaries instead of latency samples, the device-wide p99s select on one
// merged copy, and the op slab grows a page at a time. Each must report
// exactly what the sample-holding representation reported.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/runner.hpp"
#include "golden_schedule_recipe.hpp"
#include "sim/metrics.hpp"
#include "ssd/ssd.hpp"

namespace ssdk {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ReplayMemory, SummariesMatchTenantMetricsBitForBit) {
  // Four tenants with fault injection and a write buffer: read retries,
  // uncorrectable pages and buffered (volatile) pages all occur.
  testing::GoldenRecipe recipe = testing::golden_mix2_buffered();
  recipe.config.ssd.faults.read_ber = 2e-3;
  recipe.config.ssd.faults.program_fail = 1e-3;
  const auto profiles =
      core::features_of(recipe.requests).profiles(recipe.tenants);
  auto device = core::make_run_device(recipe.requests, core::Strategy{},
                                      profiles, recipe.config);
  device->run_to_completion();
  const core::RunResult result = core::summarize(*device);
  const sim::MetricsCollector& metrics = device->metrics();

  ASSERT_GE(result.per_tenant.size(), 4u);
  EXPECT_GT(result.counters.read_retries, 0u);
  EXPECT_GT(device->write_buffer_hits(), 0u);
  ASSERT_EQ(result.per_tenant.size(), metrics.all_tenants().size());
  for (const auto& [tenant, summary] : result.per_tenant) {
    const sim::TenantMetrics& t = metrics.tenant(tenant);
    EXPECT_EQ(bits(summary.total_us()), bits(t.total_us())) << tenant;
    EXPECT_EQ(bits(summary.avg_read_us()), bits(t.avg_read_us())) << tenant;
    EXPECT_EQ(bits(summary.avg_write_us()), bits(t.avg_write_us()))
        << tenant;
    EXPECT_EQ(summary.reads, t.read_latency_us.count());
    EXPECT_EQ(summary.writes, t.write_latency_us.count());
    EXPECT_EQ(summary.read_retries, t.read_retries);
    EXPECT_EQ(summary.uncorrectable_reads, t.uncorrectable_reads);
    EXPECT_EQ(summary.program_retries, t.program_retries);
    EXPECT_EQ(summary.retry_wait_ns, t.retry_wait_ns);
    EXPECT_EQ(summary.acked_volatile_lost, t.acked_volatile_lost);
    EXPECT_EQ(summary.slo_violations, t.slo_violations);
  }

  // The device-wide numbers equal the merged-sample aggregate's.
  const sim::TenantMetrics agg = metrics.aggregate();
  EXPECT_EQ(bits(result.avg_read_us), bits(agg.avg_read_us()));
  EXPECT_EQ(bits(result.avg_write_us), bits(agg.avg_write_us()));
  EXPECT_EQ(bits(result.total_us), bits(agg.total_us()));
  EXPECT_EQ(bits(result.p99_read_us),
            bits(agg.read_latency_us.percentile(99.0)));
  EXPECT_EQ(bits(result.p99_write_us),
            bits(agg.write_latency_us.percentile(99.0)));
}

sim::Completion completion(sim::TenantId tenant, sim::OpType type,
                           Duration ns) {
  sim::Completion c;
  c.tenant = tenant;
  c.type = type;
  c.arrival = 1000;
  c.finish = 1000 + ns;
  return c;
}

/// aggregate_percentile against SampleSet::percentile of aggregate()'s
/// merged set, for both operation types and a sweep of p including the
/// last rank (lo + 1 >= n, answered by the max).
void expect_percentiles_match(const sim::MetricsCollector& m) {
  const sim::TenantMetrics agg = m.aggregate();
  for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    for (const sim::OpType type : {sim::OpType::kRead, sim::OpType::kWrite}) {
      const SampleSet& merged = type == sim::OpType::kRead
                                    ? agg.read_latency_us
                                    : agg.write_latency_us;
      const double expected = merged.empty() ? 0.0 : merged.percentile(p);
      EXPECT_EQ(bits(m.aggregate_percentile(type, p)), bits(expected))
          << "p" << p << " over " << merged.count() << " samples";
    }
  }
}

TEST(ReplayMemory, AggregatePercentileMatchesMergedSampleSet) {
  sim::MetricsCollector m;
  expect_percentiles_match(m);  // no samples: 0
  m.record(completion(2, sim::OpType::kRead, 30'000));
  expect_percentiles_match(m);  // n = 1
  m.record(completion(0, sim::OpType::kRead, 10'000));
  expect_percentiles_match(m);  // n = 2, across two tenants
  // 101 samples, so p99 lands exactly on rank 99; the GC tenant too.
  for (std::uint64_t i = 0; i < 99; ++i) {
    const sim::TenantId tenant =
        i % 3 == 0 ? sim::kInternalTenant : static_cast<sim::TenantId>(i % 4);
    m.record(completion(tenant, sim::OpType::kRead, 1'000 + (i * 7919) % 997));
    m.record(completion(tenant, sim::OpType::kWrite, 5'000 + (i * 104729) % 991));
  }
  expect_percentiles_match(m);
  EXPECT_EQ(m.aggregate_percentile(sim::OpType::kRead, 100.0), 30.0);
}

TEST(ReplayMemory, SmallReplayHoldsOneOpPage) {
  ssd::Ssd device;
  EXPECT_EQ(device.op_slab_pages(), 0u);
  std::vector<sim::IoRequest> requests;
  for (std::uint64_t i = 0; i < 100; ++i) {
    sim::IoRequest r;
    r.id = i;
    r.tenant = static_cast<sim::TenantId>(i % 2);
    r.type = i % 3 == 0 ? sim::OpType::kRead : sim::OpType::kWrite;
    r.lpn = i;
    r.arrival = i * 10 * kMicrosecond;
    requests.push_back(r);
  }
  device.submit(requests);
  device.run_until_arrival(50);
  const auto fork = device.fork();
  EXPECT_LE(fork->op_slab_pages(), 1u);
  device.run_to_completion();
  EXPECT_EQ(device.op_slab_pages(), 1u);
}

TEST(ReplayMemory, BacklogSpillsAcrossOpPagesWithoutChangingTheRun) {
  // 600 one-page writes at one instant on one channel: far more than a
  // page of ops is in flight at once.
  std::vector<sim::IoRequest> requests;
  for (std::uint64_t i = 0; i < 600; ++i) {
    sim::IoRequest r;
    r.id = i;
    r.type = sim::OpType::kWrite;
    r.lpn = i;
    requests.push_back(r);
  }
  ssd::Ssd device;
  device.set_tenant_channels(0, {0});
  device.submit(requests);
  device.run_until_arrival(599);  // every arrival at t = 0 but the last
  EXPECT_GE(device.op_slab_pages(), 2u);
  const auto fork = device.fork();
  device.run_to_completion();
  fork->run_to_completion();
  EXPECT_EQ(device.metrics().tenant(0).write_latency_us.samples(),
            fork->metrics().tenant(0).write_latency_us.samples());
  EXPECT_EQ(device.metrics().counters().page_ops, 600u);
}

}  // namespace
}  // namespace ssdk
