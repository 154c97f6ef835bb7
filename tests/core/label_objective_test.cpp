// Multi-objective label generation (LabelObjective) and scheduler-shaped
// sweep determinism: fairness/SLO objectives must pick their own argmin
// (diverging from the latency label where the objectives conflict), and a
// WFQ/DRR-shaped sweep must produce identical labels and scores at any
// thread-pool width.
#include <gtest/gtest.h>

#include <vector>

#include "core/label_gen.hpp"
#include "core/runner.hpp"
#include "core/strategy.hpp"
#include "trace/catalog.hpp"
#include "trace/mixer.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace ssdk::core {
namespace {

/// Committed two-tenant adversarial mix: tenant 0 is a light,
/// latency-sensitive reader; tenant 1 is a heavy sequential writer that
/// dominates the device whenever the two share channels.
std::vector<sim::IoRequest> reader_writer_mix() {
  trace::SyntheticSpec reader;
  reader.name = "light_reader";
  reader.write_fraction = 0.05;
  reader.request_count = 400;
  reader.intensity_rps = 3'000.0;
  reader.mean_request_pages = 2.0;
  reader.address_space_pages = 4096;
  reader.zipf_theta = 0.2;
  reader.sequential_fraction = 0.3;
  reader.seed = 11;

  trace::SyntheticSpec writer;
  writer.name = "heavy_writer";
  writer.write_fraction = 0.95;
  writer.request_count = 1'600;
  writer.intensity_rps = 12'000.0;
  writer.mean_request_pages = 4.0;
  writer.address_space_pages = 8192;
  writer.zipf_theta = 0.2;
  writer.sequential_fraction = 0.6;
  writer.seed = 13;

  const trace::Workload workloads[] = {trace::generate_synthetic(reader),
                                       trace::generate_synthetic(writer)};
  return trace::mix_workloads(workloads);
}

TEST(LabelObjective, NamesAreStable) {
  EXPECT_STREQ(label_objective_name(LabelObjective::kTotalLatency),
               "total_latency");
  EXPECT_STREQ(label_objective_name(LabelObjective::kFairness), "fairness");
  EXPECT_STREQ(label_objective_name(LabelObjective::kSloViolations),
               "slo_violations");
}

TEST(LabelObjective, LatencyObjectiveScoreEqualsTotalUs) {
  const auto requests = reader_writer_mix();
  const StrategySpace space = StrategySpace::for_tenants(2);
  LabelGenConfig config;
  const LabeledSample sample = label_workload(requests, space, config);
  ASSERT_EQ(sample.strategy_score.size(), space.size());
  EXPECT_EQ(sample.strategy_score, sample.strategy_total_us);
  // Legacy argmin semantics: first minimum wins.
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_GE(sample.strategy_total_us[i],
              sample.strategy_total_us[sample.label]);
  }
}

// Acceptance pin: on the committed reader/writer mix, labeling for SLO
// compliance picks a different strategy than labeling for total latency.
// The writer dominates total latency, so the latency label sacrifices the
// reader's isolation; the reader's tight SLO makes that sacrifice visible
// to the SLO objective.
TEST(LabelObjective, SloObjectiveDivergesFromLatencyLabel) {
  const auto requests = reader_writer_mix();
  const StrategySpace space = StrategySpace::for_tenants(2);

  LabelGenConfig config;
  config.run.ssd.sched.shares.push_back(
      {.tenant = 0, .weight = 1, .slo_target_us = 160});

  config.objective = LabelObjective::kTotalLatency;
  const LabeledSample latency = label_workload(requests, space, config);

  config.objective = LabelObjective::kSloViolations;
  const LabeledSample slo = label_workload(requests, space, config);

  // Same simulations, different argmin axis.
  EXPECT_EQ(slo.strategy_total_us, latency.strategy_total_us);
  EXPECT_NE(slo.label, latency.label)
      << "slo label " << slo.label << " (score "
      << slo.strategy_score[slo.label] << " violations), latency label "
      << latency.label << " (score " << slo.strategy_score[latency.label]
      << " violations)";
  // The SLO label must beat the latency label on its own objective — at
  // the cost of some total latency (otherwise the labels could not
  // diverge under the total_us tie-break).
  EXPECT_LT(slo.strategy_score[slo.label],
            slo.strategy_score[latency.label]);
  EXPECT_GT(slo.strategy_total_us[slo.label],
            slo.strategy_total_us[latency.label]);
}

TEST(LabelObjective, FairnessObjectivePicksItsOwnArgmin) {
  const auto requests = reader_writer_mix();
  const StrategySpace space = StrategySpace::for_tenants(2);
  LabelGenConfig config;
  config.objective = LabelObjective::kFairness;
  const LabeledSample sample = label_workload(requests, space, config);
  ASSERT_EQ(sample.strategy_score.size(), space.size());
  // Scores are worst-tenant slowdowns: >= 1 on every strategy (a shared
  // run cannot beat the tenant's isolated baseline on this device).
  for (const double score : sample.strategy_score) {
    EXPECT_GE(score, 1.0);
  }
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_GE(sample.strategy_score[i],
              sample.strategy_score[sample.label]);
  }
  EXPECT_NE(sample.strategy_score, sample.strategy_total_us);
}

// When no tenant has an isolated baseline the slowdown is undefined, and
// the fairness score falls back to total latency.
TEST(LabelObjective, FairnessWithoutBaselinesScoresTotalLatency) {
  // Two heavy writers on a 256-page device with GC off: each one fills
  // it even alone, so neither gets a baseline.
  std::vector<trace::Workload> workloads;
  for (std::uint32_t t = 0; t < 2; ++t) {
    trace::SyntheticSpec spec;
    spec.write_fraction = 0.9;
    spec.request_count = 400;
    spec.intensity_rps = 5'000.0;
    spec.mean_request_pages = 4.0;
    spec.address_space_pages = 4096;
    spec.seed = 21 + t;
    workloads.push_back(trace::generate_synthetic(spec));
  }
  const auto requests = trace::mix_workloads(workloads);
  const StrategySpace space = StrategySpace::for_tenants(2);
  LabelGenConfig config;
  config.run.ssd.geometry = sim::Geometry::tiny();
  config.run.ssd.geometry.channels = 8;
  config.run.ssd.geometry.blocks_per_plane = 4;
  config.run.ssd.gc_enabled = false;
  config.objective = LabelObjective::kFairness;
  const auto profiles =
      features_of(requests, config.features).profiles(space.tenants());
  ASSERT_TRUE(isolated_baselines(requests, profiles, config.run).empty());

  const LabeledSample sample = label_workload(requests, space, config);
  for (const double us : sample.strategy_total_us) EXPECT_GT(us, 0.0);
  EXPECT_EQ(sample.strategy_score, sample.strategy_total_us);
}

/// One scheduler-shaped sweep, swept at several pool widths; every
/// product (label, latencies, scores) must be bit-identical.
void expect_pool_invariant_sweep(sched::Policy policy) {
  const auto requests = trace::build_mix(1, 0.1, 400);
  const StrategySpace space = StrategySpace::for_tenants(4);
  LabelGenConfig config;
  config.run.ssd.sched.policy = policy;
  config.run.ssd.sched.max_outstanding_requests = 4;
  config.run.ssd.sched.shares.push_back({.tenant = 0, .weight = 4});
  config.run.ssd.sched.shares.push_back({.tenant = 3, .weight = 2});

  ThreadPool pool1(1);
  const LabeledSample base = label_workload(requests, space, config, &pool1);
  for (const unsigned threads : {4u, 16u}) {
    ThreadPool pool(threads);
    const LabeledSample other =
        label_workload(requests, space, config, &pool);
    EXPECT_EQ(other.label, base.label)
        << sched::policy_name(policy) << " at " << threads << " workers";
    EXPECT_EQ(other.strategy_total_us, base.strategy_total_us);
    EXPECT_EQ(other.strategy_score, base.strategy_score);
  }
}

TEST(SchedSweepDeterminism, WfqIdenticalAcrossPoolWidths) {
  expect_pool_invariant_sweep(sched::Policy::kWfq);
}

TEST(SchedSweepDeterminism, DrrIdenticalAcrossPoolWidths) {
  expect_pool_invariant_sweep(sched::Policy::kDrr);
}

}  // namespace
}  // namespace ssdk::core
