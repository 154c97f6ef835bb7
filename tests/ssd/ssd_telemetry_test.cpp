// Device-level telemetry guarantees: tracing must never perturb the
// schedule, and the offline rollup must reconcile with the device's own
// aggregate metrics.
#include <gtest/gtest.h>

#include <map>

#include "core/allocator.hpp"
#include "core/features.hpp"
#include "core/keeper.hpp"
#include "core/runner.hpp"
#include "telemetry/binary_trace.hpp"
#include "telemetry/rollup.hpp"
#include "trace/mixer.hpp"
#include "trace/synthetic.hpp"

namespace ssdk {
namespace {

std::vector<sim::IoRequest> two_tenant_mix(std::uint64_t seed = 11) {
  trace::SyntheticSpec writer;
  writer.write_fraction = 0.9;
  writer.request_count = 600;
  writer.intensity_rps = 9000.0;
  writer.seed = seed;
  trace::SyntheticSpec reader;
  reader.write_fraction = 0.1;
  reader.request_count = 600;
  reader.intensity_rps = 9000.0;
  reader.seed = seed + 1;
  return trace::mix_workloads(std::vector<trace::Workload>{
      trace::generate_synthetic(writer), trace::generate_synthetic(reader)});
}

TEST(SsdTelemetry, TracingLeavesScheduleBitIdentical) {
  const auto requests = two_tenant_mix();
  const auto profiles = core::features_of(requests).profiles(2);

  const core::RunResult plain = core::run_with_strategy(
      requests, core::Strategy{}, profiles, core::RunConfig{});

  telemetry::Tracer tracer;
  core::RunConfig traced_config;
  traced_config.tracer = &tracer;
  const core::RunResult traced = core::run_with_strategy(
      requests, core::Strategy{}, profiles, traced_config);

  // Latencies are pure functions of the event schedule; exact equality
  // means the tracer did not move a single event.
  EXPECT_EQ(plain.avg_read_us, traced.avg_read_us);
  EXPECT_EQ(plain.avg_write_us, traced.avg_write_us);
  EXPECT_EQ(plain.p99_read_us, traced.p99_read_us);
  EXPECT_EQ(plain.p99_write_us, traced.p99_write_us);
  EXPECT_EQ(plain.counters.conflicts, traced.counters.conflicts);
  EXPECT_EQ(plain.counters.page_ops, traced.counters.page_ops);
  EXPECT_EQ(plain.counters.bus_busy_ns, traced.counters.bus_busy_ns);
  EXPECT_EQ(plain.counters.gc_migrations, traced.counters.gc_migrations);
  EXPECT_GT(tracer.recorded(), 0u);
}

TEST(SsdTelemetry, RepeatedTracedRunsProduceIdenticalTraces) {
  const auto requests = two_tenant_mix(23);
  const auto profiles = core::features_of(requests).profiles(2);
  std::vector<telemetry::TraceEvent> first, second;
  for (auto* sink : {&first, &second}) {
    telemetry::Tracer tracer;
    core::RunConfig config;
    config.tracer = &tracer;
    core::run_with_strategy(requests, core::Strategy{}, profiles, config);
    *sink = tracer.events();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(telemetry::first_divergence(first, second),
            telemetry::kNoDivergence);
}

TEST(SsdTelemetry, RollupReconcilesWithRunResult) {
  const auto requests = two_tenant_mix(31);
  const auto profiles = core::features_of(requests).profiles(2);
  telemetry::Tracer tracer;
  core::RunConfig config;
  config.tracer = &tracer;
  const core::RunResult result = core::run_with_strategy(
      requests, core::Strategy{}, profiles, config);
  ASSERT_EQ(tracer.dropped(), 0u) << "ring too small for this workload";

  telemetry::RollupConfig rollup_config;
  rollup_config.window_ns = 50 * kMillisecond;
  rollup_config.channels = config.ssd.geometry.channels;
  const auto rows = build_rollup(tracer.events(), rollup_config);
  ASSERT_FALSE(rows.empty());

  std::map<sim::TenantId, std::uint64_t> reads, writes;
  for (const auto& row : rows) {
    reads[row.tenant] += row.reads;
    writes[row.tenant] += row.writes;
    EXPECT_GE(row.bus_util, 0.0);
    EXPECT_LE(row.bus_util, 1.0);
  }
  // Window sums must equal the device's own per-tenant sample counts.
  for (const auto& [tenant, summary] : result.per_tenant) {
    EXPECT_EQ(reads[tenant], summary.reads) << "tenant " << tenant;
    EXPECT_EQ(writes[tenant], summary.writes) << "tenant " << tenant;
  }
  // And device-wide: one kRequest span per host read/write.
  std::uint64_t total = 0;
  for (const auto& [tenant, n] : reads) total += n;
  for (const auto& [tenant, n] : writes) total += n;
  EXPECT_EQ(total, result.counters.host_reads + result.counters.host_writes);
}

TEST(SsdTelemetry, KeeperDecisionsLandInTrace) {
  const auto space = core::StrategySpace::for_tenants(2);
  // Linear model biased hard toward one strategy index.
  nn::Matrix w(core::kFeatureDim, space.size());
  nn::Matrix b(1, space.size());
  const auto winner = static_cast<std::uint32_t>(space.index_of("6:2"));
  b(0, winner) = 10.0;
  std::vector<nn::DenseLayer> layers;
  layers.emplace_back(std::move(w), std::move(b), nn::Activation::kIdentity);
  nn::StandardScaler scaler;
  scaler.set_parameters(std::vector<double>(core::kFeatureDim, 0.0),
                        std::vector<double>(core::kFeatureDim, 1.0));
  const core::ChannelAllocator allocator(
      nn::Mlp(std::move(layers)), std::move(scaler), space);

  core::KeeperConfig keeper_config;
  keeper_config.collect_window_ns = 40 * kMillisecond;
  telemetry::Tracer tracer;
  const core::KeeperRunResult result = core::run_with_keeper(
      two_tenant_mix(41), allocator, keeper_config, ssd::SsdOptions{},
      &tracer);

  ASSERT_FALSE(tracer.decisions().size() == 0u);
  EXPECT_EQ(tracer.decisions().size(), result.decisions.size());
  const auto& d = tracer.decisions().front();
  EXPECT_EQ(d.strategy, "6:2");
  EXPECT_TRUE(d.changed);
  EXPECT_FALSE(d.features.empty());
  std::uint64_t decision_events = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == telemetry::SpanKind::kKeeperDecision) ++decision_events;
  }
  EXPECT_EQ(decision_events, tracer.decisions().size());
}

TEST(SsdTelemetry, FtlDecisionsGatedByConfig) {
  const auto requests = two_tenant_mix(53);
  const auto profiles = core::features_of(requests).profiles(2);
  for (const bool enabled : {false, true}) {
    telemetry::TelemetryConfig tconfig;
    tconfig.ftl_decisions = enabled;
    telemetry::Tracer tracer(tconfig);
    core::RunConfig config;
    config.tracer = &tracer;
    core::run_with_strategy(requests, core::Strategy{}, profiles, config);
    std::uint64_t allocs = 0;
    for (const auto& e : tracer.events()) {
      if (e.kind == telemetry::SpanKind::kPageAlloc) ++allocs;
    }
    if (enabled) {
      EXPECT_GT(allocs, 0u);
    } else {
      EXPECT_EQ(allocs, 0u);
    }
  }
}

}  // namespace
}  // namespace ssdk
