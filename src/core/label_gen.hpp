// Label generation (paper Algorithm 1, lines 3-8): run a mixed workload
// under every channel-allocation strategy, record each strategy's overall
// latency, and label the workload with the argmin strategy. Dataset
// generation synthesizes thousands of such workloads with randomized
// feature-space coverage and fans the strategy sweeps out on a thread pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/runner.hpp"
#include "core/strategy.hpp"
#include "nn/dataset.hpp"
#include "sim/request.hpp"
#include "util/thread_pool.hpp"

namespace ssdk::core {

/// What the label sweep minimizes when picking the argmin strategy.
/// kTotalLatency is the paper's objective (avg read + avg write latency);
/// the other two label for multi-tenant service quality instead:
/// kFairness minimizes the worst tenant's slowdown vs running alone,
/// kSloViolations minimizes the total SLO-target misses (requires
/// slo_target_us entries in the run's scheduler config to be non-trivial).
/// Ties fall back to total latency, then to the lower strategy index, so
/// kTotalLatency reproduces the legacy first-min labels exactly.
enum class LabelObjective : std::uint8_t {
  kTotalLatency,
  kFairness,
  kSloViolations,
};

const char* label_objective_name(LabelObjective objective);

struct LabelGenConfig {
  RunConfig run;
  FeatureConfig features;
  /// Objective the argmin label minimizes (see LabelObjective).
  LabelObjective objective = LabelObjective::kTotalLatency;
  /// Fraction of the request stream (by request index) simulated under
  /// `base_strategy` before each candidate strategy takes effect — the
  /// fork-at-decision methodology. 0 (default) keeps the legacy cold-start
  /// semantics where every strategy governs the run from time zero.
  /// Values below 0 or above 1 clamp; NaN is rejected by label_workload.
  double fork_point = 0.0;
  /// Simulate the warm-up prefix once and fork() the device per distinct
  /// channel map (see label_workload) instead of re-simulating the prefix
  /// for each of them (the cold sweep). Produces the *same* LabeledSample
  /// (labels and per-strategy latencies) as the cold sweep at the same
  /// fork_point; only wall-clock changes.
  bool shared_prefix_fork = false;
  /// Strategy governing the shared warm-up prefix (default: Shared).
  Strategy base_strategy{};
};

struct LabeledSample {
  MixFeatures features;
  std::uint32_t label = 0;  ///< index into the strategy space
  /// Overall latency (avg read + avg write, us) per strategy, aligned with
  /// the space — the raw material of Figures 2 and 6.
  std::vector<double> strategy_total_us;
  /// Objective value per strategy (what the label minimized). Identical to
  /// strategy_total_us under kTotalLatency; worst-tenant slowdown under
  /// kFairness; total SLO violations under kSloViolations.
  std::vector<double> strategy_score;
};

/// Evaluate every strategy on one workload. Strategies for which
/// assign_channels returns the same per-tenant channel sets configure
/// identical devices, so only the first of each such group is simulated
/// and its result is copied to the others: a 4-tenant sweep on 8 channels
/// runs 12 simulations for its 42 strategies, a 2-tenant sweep all 8.
/// Every entry equals run_with_strategy_switch(base_strategy, strategy) at
/// the fork point. The simulations are core::run_trials on `pool` (each
/// on its own device) and the label is their first_argmin. Throws
/// std::invalid_argument on a NaN fork_point, before any replay.
LabeledSample label_workload(std::span<const sim::IoRequest> requests,
                             const StrategySpace& space,
                             const LabelGenConfig& config,
                             ThreadPool* pool = nullptr);

struct DatasetGenConfig {
  std::uint32_t tenants = 4;
  std::uint64_t workloads = 200;
  /// Each synthesized mixed workload covers this much arrival time, so
  /// high-intensity samples contain enough requests for queueing to reach
  /// steady state (a fixed request count would shrink the horizon exactly
  /// where contention matters).
  double workload_duration_s = 0.5;
  /// Optional hard cap on the mixed stream length (0 = no cap).
  std::uint64_t requests_per_workload = 0;
  /// Aggregate arrival-rate range sampled per workload; spans the feature
  /// collector's intensity scale.
  double min_rate_rps = 1'200.0;
  double max_rate_rps = 36'000.0;
  std::uint64_t address_space_pages = 32 * 1024;
  std::uint64_t seed = 7;
  LabelGenConfig label;
};

struct GeneratedDataset {
  nn::Dataset data;  ///< 9-D feature rows -> strategy-index labels
  std::vector<LabeledSample> samples;
};

/// Synthesize one mixed workload for dataset row `index` (deterministic in
/// (config.seed, index)). Each tenant draws its write fraction from a read-
/// or write-dominated band and its request size, sequentiality and Zipf
/// skew from fixed ranges (label_gen.cpp): heterogeneous sizes and
/// sequentiality are what make channel partitioning pay off, so the
/// training distribution spans them like the evaluation traces do.
std::vector<sim::IoRequest> synthesize_mix(const DatasetGenConfig& config,
                                           std::uint64_t index);

/// Pack labeled samples, in order, into the 9-D feature rows and label
/// vector of a GeneratedDataset.
GeneratedDataset pack_dataset(std::vector<LabeledSample> samples);

/// Generate the full dataset; workloads are distributed over the pool and
/// each workload's per-strategy sweep fans out on the same pool (nested
/// parallel_for). Results are merged by index, so the dataset is
/// bit-identical at any pool size.
GeneratedDataset generate_dataset(const StrategySpace& space,
                                  const DatasetGenConfig& config,
                                  ThreadPool& pool);

}  // namespace ssdk::core
