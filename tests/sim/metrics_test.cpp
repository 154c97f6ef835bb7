#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace ssdk::sim {
namespace {

Completion make_completion(TenantId tenant, OpType type, Duration ns) {
  Completion c;
  c.tenant = tenant;
  c.type = type;
  c.arrival = 1000;
  c.finish = 1000 + ns;
  return c;
}

TEST(Metrics, RecordsPerTenantAndType) {
  MetricsCollector m;
  m.record(make_completion(0, OpType::kRead, 20 * kMicrosecond));
  m.record(make_completion(0, OpType::kWrite, 200 * kMicrosecond));
  m.record(make_completion(1, OpType::kRead, 40 * kMicrosecond));

  EXPECT_TRUE(m.has_tenant(0));
  EXPECT_TRUE(m.has_tenant(1));
  EXPECT_FALSE(m.has_tenant(2));
  EXPECT_DOUBLE_EQ(m.tenant(0).avg_read_us(), 20.0);
  EXPECT_DOUBLE_EQ(m.tenant(0).avg_write_us(), 200.0);
  EXPECT_DOUBLE_EQ(m.tenant(0).total_us(), 220.0);
  EXPECT_DOUBLE_EQ(m.tenant(1).avg_read_us(), 40.0);
  EXPECT_EQ(m.counters().host_reads, 2u);
  EXPECT_EQ(m.counters().host_writes, 1u);
}

TEST(Metrics, UnknownTenantThrows) {
  const MetricsCollector m;
  EXPECT_THROW(m.tenant(3), std::out_of_range);
}

TEST(Metrics, AggregateMergesTenants) {
  MetricsCollector m;
  m.record(make_completion(0, OpType::kRead, 10 * kMicrosecond));
  m.record(make_completion(1, OpType::kRead, 30 * kMicrosecond));
  const TenantMetrics agg = m.aggregate();
  EXPECT_DOUBLE_EQ(agg.avg_read_us(), 20.0);
  EXPECT_EQ(agg.read_latency_us.count(), 2u);
}

TEST(Metrics, ConflictRate) {
  MetricsCollector m;
  EXPECT_DOUBLE_EQ(m.conflict_rate(), 0.0);
  m.counters().page_ops = 10;
  m.count_conflict();
  m.count_conflict();
  EXPECT_DOUBLE_EQ(m.conflict_rate(), 0.2);
}

TEST(Metrics, CompletionLatencyHelper) {
  const Completion c = make_completion(0, OpType::kRead, 5000);
  EXPECT_EQ(c.latency(), 5000u);
}

}  // namespace
}  // namespace ssdk::sim
