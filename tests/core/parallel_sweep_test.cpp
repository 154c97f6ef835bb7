// Bit-reproducibility of the parallel sweep paths: a workload's
// per-strategy sweep and the nested dataset generation must produce
// identical results at any thread count. Every task runs an independent
// deterministic simulation and writes only its own slot, so the merge is
// pure index order — these tests pin that contract.
#include <gtest/gtest.h>

#include <vector>

#include "core/label_gen.hpp"
#include "util/thread_pool.hpp"

namespace ssdk::core {
namespace {

DatasetGenConfig small_config(std::uint64_t workloads = 3) {
  DatasetGenConfig config;
  config.workloads = workloads;
  config.requests_per_workload = 400;
  config.seed = 23;
  return config;
}

void expect_same_sample(const LabeledSample& a, const LabeledSample& b) {
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.strategy_total_us.size(), b.strategy_total_us.size());
  for (std::size_t i = 0; i < a.strategy_total_us.size(); ++i) {
    EXPECT_EQ(a.strategy_total_us[i], b.strategy_total_us[i])
        << "strategy " << i;
  }
  EXPECT_EQ(a.features.to_vector(), b.features.to_vector());
}

/// The acceptance contract of the sweep fan-out: 1, 4 and 16 worker
/// threads yield the exact LabeledSample of the serial sweep.
TEST(ParallelSweep, LabelWorkloadIdenticalAcrossPoolSizes) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 0);
  const auto space = StrategySpace::for_tenants(4);
  const LabeledSample serial =
      label_workload(requests, space, config.label, nullptr);
  for (const std::size_t threads : {1u, 4u, 16u}) {
    ThreadPool pool(threads);
    const LabeledSample pooled =
        label_workload(requests, space, config.label, &pool);
    SCOPED_TRACE(threads);
    expect_same_sample(serial, pooled);
  }
}

/// Same contract for the shared-prefix fork sweep (concurrent fork()s of
/// one prefix device).
TEST(ParallelSweep, ForkSweepIdenticalAcrossPoolSizes) {
  const auto config = small_config();
  const auto requests = synthesize_mix(config, 1);
  const auto space = StrategySpace::for_tenants(4);
  LabelGenConfig fork = config.label;
  fork.fork_point = 0.5;
  fork.shared_prefix_fork = true;
  const LabeledSample serial =
      label_workload(requests, space, fork, nullptr);
  for (const std::size_t threads : {1u, 4u, 16u}) {
    ThreadPool pool(threads);
    const LabeledSample pooled =
        label_workload(requests, space, fork, &pool);
    SCOPED_TRACE(threads);
    expect_same_sample(serial, pooled);
  }
}

/// Nested fan-out: generate_dataset parallelizes workloads AND each
/// workload's strategy sweep on the same pool. The dataset must not
/// depend on how the two levels interleave.
TEST(ParallelSweep, GenerateDatasetIdenticalAcrossPoolSizes) {
  const auto config = small_config();
  const auto space = StrategySpace::for_tenants(4);
  ThreadPool one(1);
  const GeneratedDataset base = generate_dataset(space, config, one);
  for (const std::size_t threads : {4u, 16u}) {
    ThreadPool pool(threads);
    const GeneratedDataset out = generate_dataset(space, config, pool);
    SCOPED_TRACE(threads);
    ASSERT_EQ(out.samples.size(), base.samples.size());
    for (std::size_t i = 0; i < base.samples.size(); ++i) {
      expect_same_sample(base.samples[i], out.samples[i]);
    }
    EXPECT_EQ(out.data.labels(), base.data.labels());
    EXPECT_EQ(out.data.features().raw(), base.data.features().raw());
  }
}

/// parallel_for issued from inside a pool task must complete even on a
/// single-worker pool (the caller drains the chunks itself).
TEST(ParallelSweep, NestedParallelForDoesNotDeadlockOnTinyPool) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  parallel_for(pool, 8, [&](std::size_t outer) {
    parallel_for(pool, 8, [&](std::size_t inner) {
      hits[outer * 8 + inner] += 1;
    });
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace ssdk::core
