#include "snapshot/campaign.hpp"

#include <filesystem>

#include "snapshot/device_snapshot.hpp"

namespace ssdk::snapshot {

namespace {

// The two config serializers below exist only to feed campaign_fingerprint:
// their bytes are hashed so a checkpoint refuses to resume under a different
// generation config. The configs themselves always come from the caller and
// are never reloaded, so no load_* counterpart exists by design.
// ssdk-snap: ignore-type(LabelGenConfig): write-only fingerprint record, never deserialized
// ssdk-snap: ignore-type(DatasetGenConfig): write-only fingerprint record, never deserialized

void save_label_config(StateWriter& w, const core::LabelGenConfig& c) {
  save_options(w, c.run.ssd);
  w.boolean(c.run.hybrid_page_allocation);
  w.f64(c.run.warmup_fraction);
  w.u32(c.features.max_tenants);
  w.u32(c.features.intensity_levels);
  w.f64(c.features.max_intensity_rps);
  w.u8(static_cast<std::uint8_t>(c.objective));
  w.f64(c.fork_point);
  w.boolean(c.shared_prefix_fork);
  w.u8(static_cast<std::uint8_t>(c.base_strategy.kind));
  for (const std::uint32_t p : c.base_strategy.parts) w.u32(p);
}

void save_gen_config(StateWriter& w, const core::DatasetGenConfig& c) {
  w.u32(c.tenants);
  w.u64(c.workloads);
  w.f64(c.workload_duration_s);
  w.u64(c.requests_per_workload);
  w.f64(c.min_rate_rps);
  w.f64(c.max_rate_rps);
  w.u64(c.address_space_pages);
  w.u64(c.seed);
  save_label_config(w, c.label);
}

void save_sample(StateWriter& w, const core::LabeledSample& s) {
  w.u32(s.features.intensity_level);
  for (const std::uint8_t d : s.features.read_dominated) w.u8(d);
  for (const double p : s.features.proportion) w.f64(p);
  w.u32(s.label);
  w.vec_f64(s.strategy_total_us);
  w.vec_f64(s.strategy_score);
}

core::LabeledSample load_sample(StateReader& r) {
  core::LabeledSample s;
  s.features.intensity_level = r.u32();
  for (std::uint8_t& d : s.features.read_dominated) d = r.u8();
  for (double& p : s.features.proportion) p = r.f64();
  s.label = r.u32();
  s.strategy_total_us = r.vec_f64();
  s.strategy_score = r.vec_f64();
  return s;
}

}  // namespace

std::uint64_t campaign_fingerprint(const core::DatasetGenConfig& config) {
  StateWriter w;
  save_gen_config(w, config);
  return fnv1a(w.buffer());
}

void save_campaign_file(const std::string& path,
                        const core::DatasetGenConfig& config,
                        std::span<const core::LabeledSample> samples) {
  StateWriter payload;
  payload.tag("CAMP");
  payload.u64(campaign_fingerprint(config));
  payload.u64(config.workloads);
  payload.u64(samples.size());
  for (const core::LabeledSample& s : samples) save_sample(payload, s);
  write_container_file(path, PayloadKind::kCampaign, payload.buffer());
}

std::vector<core::LabeledSample> load_campaign_file(
    const std::string& path, const core::DatasetGenConfig& config) {
  const std::vector<char> payload =
      read_container_file(path, PayloadKind::kCampaign);
  StateReader r(payload);
  r.tag("CAMP");
  const std::uint64_t fingerprint = r.u64();
  const std::uint64_t expected = campaign_fingerprint(config);
  if (fingerprint != expected) {
    throw SnapshotError(
        "snapshot: campaign fingerprint mismatch at offset 4: expected " +
            std::to_string(expected) + ", found " +
            std::to_string(fingerprint) +
            " — checkpoint was produced by a different generation config",
        4);
  }
  const std::uint64_t total = r.u64();
  const std::uint64_t completed = r.checked_count(1);
  if (completed > total || total != config.workloads) {
    throw SnapshotError(
        "snapshot: campaign progress out of range: " +
            std::to_string(completed) + " of " + std::to_string(total) +
            " workloads (config expects " +
            std::to_string(config.workloads) + ")",
        r.offset());
  }
  std::vector<core::LabeledSample> samples;
  samples.reserve(completed);
  for (std::uint64_t i = 0; i < completed; ++i) {
    samples.push_back(load_sample(r));
  }
  return samples;
}

core::GeneratedDataset generate_dataset_resumable(
    const core::StrategySpace& space, const core::DatasetGenConfig& config,
    ThreadPool& pool, const CampaignOptions& options) {
  std::vector<core::LabeledSample> samples;
  if (options.resume && !options.checkpoint_path.empty() &&
      std::filesystem::exists(options.checkpoint_path)) {
    samples = load_campaign_file(options.checkpoint_path, config);
  }

  const std::uint64_t batch =
      options.checkpoint_every > 0 ? options.checkpoint_every
                                   : config.workloads;
  while (samples.size() < config.workloads) {
    const std::uint64_t start = samples.size();
    const std::uint64_t count =
        std::min<std::uint64_t>(batch, config.workloads - start);
    samples.resize(start + count);
    // Same per-workload task shape as core::generate_dataset, nested
    // sweeps included: the synthesized stream is a pure function of
    // (seed, index), so a resumed batch picks up exactly where the
    // checkpoint left off, and a batch smaller than the pool still keeps
    // every worker busy.
    parallel_for(pool, count, [&](std::size_t i) {
      const auto requests = core::synthesize_mix(config, start + i);
      samples[start + i] =
          core::label_workload(requests, space, config.label, &pool);
    });
    if (!options.checkpoint_path.empty()) {
      save_campaign_file(options.checkpoint_path, config, samples);
    }
    if (options.on_progress) {
      options.on_progress(samples.size(), config.workloads);
    }
  }

  return core::pack_dataset(std::move(samples));
}

}  // namespace ssdk::snapshot
