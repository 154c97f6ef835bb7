// Resumable-campaign tests: a checkpointed/resumed dataset generation must
// produce exactly the dataset a straight-through run produces, and a
// checkpoint recorded under different generation parameters must be
// refused via its config fingerprint.
#include "snapshot/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/label_gen.hpp"

namespace ssdk::snapshot {
namespace {

/// Tiny campaign: 2-channel device, short streams, a 2-tenant strategy
/// space — small enough that the full sweep stays in unit-test budget.
core::DatasetGenConfig tiny_config() {
  core::DatasetGenConfig config;
  config.tenants = 2;
  config.workloads = 6;
  config.workload_duration_s = 0.05;
  config.requests_per_workload = 400;
  config.min_rate_rps = 2'000.0;
  config.max_rate_rps = 8'000.0;
  config.address_space_pages = 2048;
  config.seed = 77;
  config.label.run.ssd.geometry.blocks_per_plane = 64;
  config.label.features.max_tenants = 2;
  return config;
}

void expect_same_samples(std::span<const core::LabeledSample> a,
                         std::span<const core::LabeledSample> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "workload " << i;
    EXPECT_EQ(a[i].strategy_total_us, b[i].strategy_total_us)
        << "workload " << i;
    // Regression: strategy_score was once dropped by save_sample, so
    // resumed campaigns lost the objective values behind their labels.
    EXPECT_EQ(a[i].strategy_score, b[i].strategy_score) << "workload " << i;
    EXPECT_EQ(a[i].features.intensity_level, b[i].features.intensity_level);
  }
}

TEST(Campaign, CheckpointFileRoundTrips) {
  const auto space = core::StrategySpace::for_tenants(2);
  const auto config = tiny_config();
  ThreadPool pool(2);
  const auto dataset = core::generate_dataset(space, config, pool);

  const std::string path = ::testing::TempDir() + "/campaign_roundtrip.snp";
  save_campaign_file(path, config, dataset.samples);
  const auto loaded = load_campaign_file(path, config);
  expect_same_samples(loaded, dataset.samples);
  std::filesystem::remove(path);
}

TEST(Campaign, ResumeProducesIdenticalDataset) {
  const auto space = core::StrategySpace::for_tenants(2);
  const auto config = tiny_config();
  ThreadPool pool(2);
  const auto straight = core::generate_dataset(space, config, pool);

  // Simulate a crash after 2 of 6 workloads: checkpoint the partial
  // progress, then resume the campaign from the file.
  const std::string path = ::testing::TempDir() + "/campaign_resume.snp";
  save_campaign_file(
      path, config,
      std::span<const core::LabeledSample>(straight.samples.data(), 2));

  CampaignOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  options.checkpoint_every = 2;
  std::vector<std::uint64_t> progress;
  options.on_progress = [&](std::uint64_t done, std::uint64_t) {
    progress.push_back(done);
  };
  const auto resumed =
      generate_dataset_resumable(space, config, pool, options);

  expect_same_samples(resumed.samples, straight.samples);
  ASSERT_EQ(resumed.data.labels().size(), straight.data.labels().size());
  // Batches of 2 starting from the 2 checkpointed workloads.
  EXPECT_EQ(progress, (std::vector<std::uint64_t>{4, 6}));
  std::filesystem::remove(path);

  // One-workload batches on a larger pool: each batch's strategy sweep
  // fans out over the idle workers, and the dataset stays the same.
  ThreadPool wide(4);
  options = CampaignOptions{};
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  const auto batched =
      generate_dataset_resumable(space, config, wide, options);
  expect_same_samples(batched.samples, straight.samples);
  EXPECT_EQ(batched.data.labels(), straight.data.labels());
  std::filesystem::remove(path);
}

TEST(Campaign, FingerprintMismatchIsRefused) {
  const auto space = core::StrategySpace::for_tenants(2);
  const auto config = tiny_config();
  ThreadPool pool(2);
  const auto dataset = core::generate_dataset(space, config, pool);

  const std::string path = ::testing::TempDir() + "/campaign_mismatch.snp";
  save_campaign_file(path, config, dataset.samples);

  core::DatasetGenConfig other = config;
  other.seed = config.seed + 1;
  try {
    load_campaign_file(path, other);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Campaign, FingerprintCoversDeviceAndSweepParameters) {
  const auto config = tiny_config();
  const std::uint64_t base = campaign_fingerprint(config);

  auto device_changed = config;
  device_changed.label.run.ssd.geometry.channels = 4;
  EXPECT_NE(campaign_fingerprint(device_changed), base);

  auto sweep_changed = config;
  sweep_changed.label.fork_point = 0.5;
  EXPECT_NE(campaign_fingerprint(sweep_changed), base);

  // shared_prefix_fork is part of the fingerprint too: it must not change
  // results, but refusing the resume is the conservative contract.
  auto mode_changed = config;
  mode_changed.label.shared_prefix_fork = true;
  EXPECT_NE(campaign_fingerprint(mode_changed), base);

  // Regression: the objective was left out of the hash, so a checkpoint
  // labeled for total latency resumed under the fairness objective.
  for (const auto objective : {core::LabelObjective::kFairness,
                                core::LabelObjective::kSloViolations}) {
    auto objective_changed = config;
    objective_changed.label.objective = objective;
    EXPECT_NE(campaign_fingerprint(objective_changed), base)
        << core::label_objective_name(objective);
  }

  EXPECT_EQ(campaign_fingerprint(tiny_config()), base);
}

}  // namespace
}  // namespace ssdk::snapshot
