#include "core/label_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ssdk::core {
namespace {

DatasetGenConfig small_config(std::uint64_t workloads = 4) {
  DatasetGenConfig config;
  config.workloads = workloads;
  config.requests_per_workload = 400;
  config.seed = 11;
  return config;
}

TEST(LabelGen, SynthesizeMixRespectsCountAndTenants) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 0);
  EXPECT_EQ(requests.size(), config.requests_per_workload);
  bool tenants_seen[4] = {false, false, false, false};
  for (const auto& r : requests) {
    ASSERT_LT(r.tenant, 4u);
    tenants_seen[r.tenant] = true;
  }
  for (const bool seen : tenants_seen) EXPECT_TRUE(seen);
}

TEST(LabelGen, SynthesizeMixDeterministicPerIndex) {
  const auto config = small_config();
  const auto a = synthesize_mix(config, 3);
  const auto b = synthesize_mix(config, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 13) {
    ASSERT_EQ(a[i].lpn, b[i].lpn);
    ASSERT_EQ(a[i].arrival, b[i].arrival);
  }
  const auto c = synthesize_mix(config, 4);
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.size(), c.size()) && !differs;
       ++i) {
    differs = a[i].lpn != c[i].lpn;
  }
  EXPECT_TRUE(differs);
}

TEST(LabelGen, LabelIsArgminOfStrategyLatencies) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 1);
  const auto space = StrategySpace::for_tenants(4);
  const LabeledSample sample =
      label_workload(requests, space, config.label, nullptr);
  ASSERT_EQ(sample.strategy_total_us.size(), space.size());
  const auto best = std::min_element(sample.strategy_total_us.begin(),
                                     sample.strategy_total_us.end());
  EXPECT_EQ(sample.label,
            static_cast<std::uint32_t>(
                std::distance(sample.strategy_total_us.begin(), best)));
  for (const double v : sample.strategy_total_us) EXPECT_GT(v, 0.0);
}

TEST(LabelGen, ParallelAndSerialAgree) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 2);
  const auto space = StrategySpace::for_tenants(4);
  ThreadPool pool(4);
  const auto serial = label_workload(requests, space, config.label, nullptr);
  const auto parallel = label_workload(requests, space, config.label, &pool);
  EXPECT_EQ(serial.label, parallel.label);
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.strategy_total_us[i],
                     parallel.strategy_total_us[i]);
  }
}

/// The shared-prefix fork sweep is a pure wall-clock optimization: at any
/// fork point it must yield the exact LabeledSample of the cold sweep that
/// re-simulates the prefix per candidate.
TEST(LabelGen, ForkSweepMatchesColdSweep) {
  const auto config = small_config();
  const auto space = StrategySpace::for_tenants(4);
  for (const double fork_point : {0.0, 0.4, 0.9}) {
    const auto requests = synthesize_mix(config, 1);
    LabelGenConfig cold = config.label;
    cold.fork_point = fork_point;
    cold.shared_prefix_fork = false;
    LabelGenConfig fork = cold;
    fork.shared_prefix_fork = true;

    const LabeledSample a = label_workload(requests, space, cold, nullptr);
    const LabeledSample b = label_workload(requests, space, fork, nullptr);
    EXPECT_EQ(a.label, b.label) << "fork_point " << fork_point;
    ASSERT_EQ(a.strategy_total_us.size(), b.strategy_total_us.size());
    for (std::size_t i = 0; i < a.strategy_total_us.size(); ++i) {
      EXPECT_EQ(a.strategy_total_us[i], b.strategy_total_us[i])
          << "fork_point " << fork_point << ", strategy " << i;
    }
  }
}

/// Forked sweeps dispatched on a pool agree with the serial fork sweep —
/// each fork is an independent device, so the parallel_for order cannot
/// leak into results.
TEST(LabelGen, ForkSweepParallelAndSerialAgree) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 2);
  const auto space = StrategySpace::for_tenants(4);
  LabelGenConfig fork = config.label;
  fork.fork_point = 0.5;
  fork.shared_prefix_fork = true;
  ThreadPool pool(4);
  const auto serial = label_workload(requests, space, fork, nullptr);
  const auto parallel = label_workload(requests, space, fork, &pool);
  EXPECT_EQ(serial.label, parallel.label);
  EXPECT_EQ(serial.strategy_total_us, parallel.strategy_total_us);
}

/// Every entry of a sweep equals an independent replay of its own
/// strategy. The sweep replays one strategy per distinct channel map and
/// copies its result to the others, so the copied entries need this
/// check: comparing the fork sweep with the cold sweep would not catch a
/// copy made from the wrong strategy, since both sweeps copy alike.
TEST(LabelGen, EveryStrategyMatchesItsOwnRun) {
  for (const std::uint32_t tenants : {4u, 2u}) {
    DatasetGenConfig gen = small_config();
    gen.tenants = tenants;
    const auto requests = synthesize_mix(gen, 1);
    const auto space = StrategySpace::for_tenants(tenants);
    LabelGenConfig config = gen.label;
    // Tenant 0 gets a tight SLO so the SLO objective has misses to count.
    config.run.ssd.sched.shares.push_back(
        {.tenant = 0, .weight = 1, .slo_target_us = 160});
    const auto profiles =
        features_of(requests, config.features).profiles(tenants);
    const auto baselines = isolated_baselines(requests, profiles, config.run);

    for (const double fork_point : {0.0, 0.5}) {
      const auto switch_at = static_cast<std::uint64_t>(
          fork_point * static_cast<double>(requests.size()));
      std::vector<RunResult> own;
      for (std::size_t i = 0; i < space.size(); ++i) {
        RunResult r =
            switch_at == 0
                ? run_with_strategy(requests, space.at(i), profiles,
                                    config.run)
                : run_with_strategy_switch(requests, config.base_strategy,
                                           space.at(i), switch_at, profiles,
                                           config.run);
        apply_fairness(r, baselines);
        own.push_back(std::move(r));
      }

      for (const bool fork : {true, false}) {
        for (const LabelObjective objective :
             {LabelObjective::kTotalLatency, LabelObjective::kFairness,
              LabelObjective::kSloViolations}) {
          config.fork_point = fork_point;
          config.shared_prefix_fork = fork;
          config.objective = objective;
          const LabeledSample sample =
              label_workload(requests, space, config, nullptr);
          ASSERT_EQ(sample.strategy_total_us.size(), space.size());
          ASSERT_EQ(sample.strategy_score.size(), space.size());
          for (std::size_t i = 0; i < space.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << tenants << " tenants, fork_point " << fork_point
                         << (fork ? ", fork" : ", cold") << " sweep, "
                         << label_objective_name(objective) << ", "
                         << space.at(i).name());
            EXPECT_EQ(sample.strategy_total_us[i], own[i].total_us);
            const double expected =
                objective == LabelObjective::kTotalLatency
                    ? own[i].total_us
                : objective == LabelObjective::kSloViolations
                    ? static_cast<double>(own[i].slo_violations)
                    : own[i].worst_slowdown;
            EXPECT_EQ(sample.strategy_score[i], expected);
          }
        }
      }
    }
  }
}

/// A NaN fork point has no place in the request order: it is rejected
/// before any replay instead of being cast into an arbitrary switch index.
/// Out-of-range fork points still clamp to the ends of the stream.
TEST(LabelGen, RejectsNanForkPoint) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 1);
  const auto space = StrategySpace::for_tenants(4);
  LabelGenConfig label = config.label;
  for (const bool fork : {false, true}) {
    label.shared_prefix_fork = fork;
    label.fork_point = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(label_workload(requests, space, label, nullptr),
                 std::invalid_argument);
  }
  const auto at = [&](double fork_point) {
    label.fork_point = fork_point;
    return label_workload(requests, space, label, nullptr).strategy_total_us;
  };
  EXPECT_EQ(at(-0.5), at(0.0));
  EXPECT_EQ(at(1.5), at(1.0));
}

/// A shared prefix that fills the device cannot be forked, so the fork
/// sweep falls back to the cold sweep, whose runs all stop at the same
/// device-full abort before the switch point.
TEST(LabelGen, PrefixThatFillsDeviceMatchesColdSweep) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 1);
  const auto space = StrategySpace::for_tenants(4);
  LabelGenConfig cold = config.label;
  // 8 channels of 32 pages each, GC off.
  cold.run.ssd.geometry = sim::Geometry::tiny();
  cold.run.ssd.geometry.channels = 8;
  cold.run.ssd.geometry.blocks_per_plane = 4;
  cold.run.ssd.gc_enabled = false;
  cold.fork_point = 0.9;
  cold.shared_prefix_fork = false;
  LabelGenConfig fork = cold;
  fork.shared_prefix_fork = true;

  const auto profiles = features_of(requests, cold.features).profiles(4);
  const auto switch_at = static_cast<std::uint64_t>(
      cold.fork_point * static_cast<double>(requests.size()));
  EXPECT_THROW(
      make_run_device(requests, cold.base_strategy, profiles, cold.run)
          ->run_until_arrival(switch_at),
      ftl::DeviceFullError);

  const LabeledSample a = label_workload(requests, space, cold, nullptr);
  const LabeledSample b = label_workload(requests, space, fork, nullptr);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.strategy_total_us, b.strategy_total_us);
  EXPECT_EQ(a.strategy_score, b.strategy_score);
  ASSERT_EQ(a.strategy_total_us.size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const RunResult own =
        run_with_strategy_switch(requests, cold.base_strategy, space.at(i),
                                 switch_at, profiles, cold.run);
    EXPECT_TRUE(own.device_full) << space.at(i).name();
    EXPECT_EQ(a.strategy_total_us[i], own.total_us) << space.at(i).name();
  }
}

TEST(LabelGen, GenerateDatasetShapes) {
  const auto config = small_config(6);
  const auto space = StrategySpace::for_tenants(4);
  ThreadPool pool(4);
  const GeneratedDataset out = generate_dataset(space, config, pool);
  EXPECT_EQ(out.data.size(), 6u);
  EXPECT_EQ(out.data.feature_dim(), kFeatureDim);
  EXPECT_EQ(out.samples.size(), 6u);
  for (const auto label : out.data.labels()) {
    EXPECT_LT(label, space.size());
  }
  // Features in the dataset match the per-sample features.
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    const auto row = out.samples[i].features.to_vector();
    for (std::size_t c = 0; c < kFeatureDim; ++c) {
      EXPECT_EQ(out.data.features()(i, c), row[c]);
    }
  }
}

}  // namespace
}  // namespace ssdk::core
