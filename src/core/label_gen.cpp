#include "core/label_gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/trial.hpp"
#include "trace/mixer.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace ssdk::core {

namespace {

/// Request index where the sweep's strategy takes effect. Fork points
/// outside [0, 1] clamp; NaN would make the cast undefined, so it throws.
std::uint64_t switch_index(std::size_t request_count, double fork_point) {
  if (std::isnan(fork_point)) {
    throw std::invalid_argument("label_workload: fork_point is NaN");
  }
  if (fork_point <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::min(fork_point, 1.0) *
                                    static_cast<double>(request_count));
}

}  // namespace

const char* label_objective_name(LabelObjective objective) {
  switch (objective) {
    case LabelObjective::kTotalLatency: return "total_latency";
    case LabelObjective::kFairness: return "fairness";
    case LabelObjective::kSloViolations: return "slo_violations";
  }
  return "unknown";
}

LabeledSample label_workload(std::span<const sim::IoRequest> requests,
                             const StrategySpace& space,
                             const LabelGenConfig& config,
                             ThreadPool* pool) {
  const std::uint64_t switch_at =
      switch_index(requests.size(), config.fork_point);
  LabeledSample sample;
  sample.features = features_of(requests, config.features);
  const auto profiles = sample.features.profiles(space.tenants());

  // Fairness labels score each strategy by its worst tenant slowdown, so
  // the per-tenant isolated baselines are computed once up front (they
  // depend on the workload only, not on the candidate strategy).
  std::map<sim::TenantId, double> baselines;
  if (config.objective == LabelObjective::kFairness) {
    baselines = isolated_baselines(requests, profiles, config.run);
  }

  // Shared-prefix fork sweep: simulate [0, switch_at) once under the base
  // strategy, then fork the device per candidate. Each fork replays the
  // suffix bit-identically to a cold device that was driven to the same
  // point, so labels and latencies match the cold sweep exactly.
  std::unique_ptr<ssd::Ssd> prefix;
  if (config.shared_prefix_fork) {
    prefix = make_run_device(requests, config.base_strategy, profiles,
                             config.run);
    try {
      prefix->run_until_arrival(switch_at);
    } catch (const ftl::DeviceFullError&) {
      // The device filled up before the switch point; the prefix state is
      // mid-unwind and not resumable. Fall back to the cold sweep, whose
      // runs each degrade gracefully via summarize_device_full.
      prefix.reset();
    }
  }

  // The label's argmin key of a finished (or gracefully aborted) run: the
  // objective's score, then total latency to break ties.
  using Key = std::pair<double, double>;
  const auto key_of = [&](RunResult r) -> Key {
    switch (config.objective) {
      case LabelObjective::kTotalLatency:
        return {r.total_us, r.total_us};
      case LabelObjective::kSloViolations:
        return {static_cast<double>(r.slo_violations), r.total_us};
      case LabelObjective::kFairness:
        break;
    }
    // Worst tenant slowdown; a run with no baselined tenants degenerates
    // to total latency so the argmin stays well-defined.
    apply_fairness(r, baselines);
    return {r.tenant_slowdown.empty() ? r.total_us : r.worst_slowdown,
            r.total_us};
  };

  // The per-tenant channel sets are configure_ssd's only strategy-dependent
  // input, so strategies that assign_channels maps to the same sets
  // configure identical devices. Four-part compositions are assigned
  // largest-first by intensity, so on 8 channels the 42 four-tenant
  // strategies give only 12 distinct maps (a 2-tenant space's 8 are all
  // distinct). Run the first strategy of each map and copy its key to
  // the others; with so few maps a linear scan finds them.
  std::vector<std::vector<std::vector<std::uint32_t>>> maps;
  std::vector<std::size_t> distinct;  // first strategy of each map
  std::vector<std::size_t> map_of(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    auto map = assign_channels(space.at(i), profiles,
                               config.run.ssd.geometry.channels);
    map_of[i] = static_cast<std::size_t>(
        std::find(maps.begin(), maps.end(), map) - maps.begin());
    if (map_of[i] == maps.size()) {
      maps.push_back(std::move(map));
      distinct.push_back(i);
    }
  }

  const auto map_keys = run_trials(pool, distinct.size(), [&](std::size_t k) {
    const Strategy& strategy = space.at(distinct[k]);
    if (!prefix) {
      return key_of(run_with_strategy_switch(requests, config.base_strategy,
                                             strategy, switch_at, profiles,
                                             config.run));
    }
    const auto device = prefix->fork();
    configure_ssd(*device, strategy, profiles,
                  config.run.hybrid_page_allocation);
    try {
      device->run_to_completion();
    } catch (const ftl::DeviceFullError& e) {
      return key_of(summarize_device_full(*device, e, "label_gen"));
    }
    // Under the latency objective the key is total_us only, read from the
    // metrics' running sums: the full summary (sample copies, percentile
    // selection) is pure overhead on this path, which runs once per
    // (workload, channel map). The other objectives need the per-tenant
    // breakdown, so they pay for the full summary.
    if (config.objective == LabelObjective::kTotalLatency) {
      const double us = summarize_total_us(*device);
      return Key{us, us};
    }
    return key_of(summarize(*device));
  });

  // Objective first, then total latency, then the lower index. Under
  // kTotalLatency both fields are total_us, so this keeps the legacy
  // first-min labels bit-for-bit.
  std::vector<Key> keys;
  for (const std::size_t k : map_of) {
    keys.push_back(map_keys[k]);
    sample.strategy_score.push_back(map_keys[k].first);
    sample.strategy_total_us.push_back(map_keys[k].second);
  }
  sample.label = static_cast<std::uint32_t>(first_argmin(keys));
  return sample;
}

std::vector<sim::IoRequest> synthesize_mix(const DatasetGenConfig& config,
                                           std::uint64_t index) {
  std::uint64_t seed_state = config.seed;
  // Mix seeds so consecutive indices give unrelated streams.
  seed_state ^= splitmix64(seed_state) + index;
  Rng rng(splitmix64(seed_state));

  // Sample the aggregate rate uniformly over the feature collector's
  // intensity *levels* (not raw rates) so the training set covers every
  // level band evenly, including the contended top of the scale.
  const std::uint32_t levels = config.label.features.intensity_levels;
  const double level = rng.uniform_real(0.0, static_cast<double>(levels));
  const double level_rate =
      level / static_cast<double>(levels) *
      config.label.features.max_intensity_rps;
  const double total_rate = std::clamp(level_rate, config.min_rate_rps,
                                       config.max_rate_rps);

  // Per-tenant proportions: normalized exponentials with a floor so every
  // tenant contributes measurable traffic.
  std::vector<double> props(config.tenants);
  double sum = 0.0;
  for (auto& p : props) {
    p = rng.exponential(1.0) + 0.05;
    sum += p;
  }
  for (auto& p : props) p /= sum;

  // Every tenant covers the configured duration; the mixed stream is cut
  // at the duration boundary (and at the optional request cap).
  std::vector<trace::Workload> workloads(config.tenants);
  for (std::uint32_t t = 0; t < config.tenants; ++t) {
    const bool read_dominated = rng.bernoulli(0.5);
    trace::SyntheticSpec spec;
    spec.write_fraction = read_dominated ? rng.uniform_real(0.05, 0.15)
                                         : rng.uniform_real(0.85, 0.95);
    spec.intensity_rps = std::max(1.0, total_rate * props[t]);
    spec.request_count = static_cast<std::uint64_t>(
        spec.intensity_rps * config.workload_duration_s * 1.05) + 8;
    spec.mean_request_pages = rng.uniform_real(1.5, 4.0);
    spec.address_space_pages = config.address_space_pages;
    spec.zipf_theta = rng.uniform_real(0.2, 0.4);
    spec.sequential_fraction = rng.uniform_real(0.05, 0.5);
    spec.seed = rng.next_u64();
    workloads[t] = trace::generate_synthetic(spec);
  }
  std::uint64_t cap = static_cast<std::uint64_t>(
      total_rate * config.workload_duration_s);
  if (config.requests_per_workload != 0) {
    cap = std::min(cap, config.requests_per_workload);
  }
  cap = std::max<std::uint64_t>(cap, 64);
  return trace::mix_workloads(workloads, cap);
}

GeneratedDataset generate_dataset(const StrategySpace& space,
                                  const DatasetGenConfig& config,
                                  ThreadPool& pool) {
  std::vector<LabeledSample> samples(config.workloads);

  // One task per workload, and each workload's sweep of 8 or 12 distinct
  // device configurations fans out on the same pool (parallel_for is
  // nested-safe: the workload task claims strategy chunks itself when
  // every worker is busy). Workload tasks keep the fan-out coarse; the
  // nested sweep fills the tail when fewer workloads than workers remain.
  parallel_for(pool, config.workloads, [&](std::size_t i) {
    const auto requests = synthesize_mix(config, i);
    samples[i] = label_workload(requests, space, config.label, &pool);
  });
  return pack_dataset(std::move(samples));
}

GeneratedDataset pack_dataset(std::vector<LabeledSample> samples) {
  GeneratedDataset out;
  out.samples = std::move(samples);
  nn::Matrix features(out.samples.size(), kFeatureDim);
  std::vector<std::uint32_t> labels(out.samples.size());
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    const auto row = out.samples[i].features.to_vector();
    assert(row.size() == kFeatureDim);
    for (std::size_t c = 0; c < kFeatureDim; ++c) features(i, c) = row[c];
    labels[i] = out.samples[i].label;
  }
  out.data = nn::Dataset(std::move(features), std::move(labels));
  return out;
}

}  // namespace ssdk::core
