#include "core/runner.hpp"

#include <algorithm>
#include <sstream>

#include "sched/fairness.hpp"
#include "util/check.hpp"
#include "util/logger.hpp"

namespace ssdk::core {

void configure_ssd(ssd::Ssd& device, const Strategy& strategy,
                   std::span<const TenantProfile> profiles,
                   bool hybrid_page_allocation) {
  const auto sets = assign_channels(strategy, profiles,
                                    device.options().geometry.channels);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    device.set_tenant_channels(profiles[i].id, sets[i]);
    const bool dynamic =
        hybrid_page_allocation && !profiles[i].read_dominated;
    device.set_tenant_alloc_mode(profiles[i].id,
                                 dynamic ? ftl::AllocMode::kDynamic
                                         : ftl::AllocMode::kStatic);
  }
}

std::unique_ptr<ssd::Ssd> make_run_device(
    std::span<const sim::IoRequest> requests, const Strategy& strategy,
    std::span<const TenantProfile> profiles, const RunConfig& config) {
  auto device = std::make_unique<ssd::Ssd>(config.ssd);
  if (config.tracer) device->set_tracer(config.tracer);
  if (config.audit_interval > 0) {
    device->set_audit_interval(config.audit_interval);
  } else if (util::kCheckedBuild) {
    // Cheap enough to leave on for whole test suites, frequent enough to
    // localize a corruption to a few thousand events.
    device->set_audit_interval(4096);
  }
  configure_ssd(*device, strategy, profiles, config.hybrid_page_allocation);
  if (config.warmup_fraction > 0.0 && !requests.empty()) {
    const SimTime first = requests.front().arrival;
    const SimTime last = requests.back().arrival;
    // ssdk-lint: allow(float-time): one-shot config-time conversion of a
    // user-facing fraction into a metrics cutoff; it gates statistics
    // only and never feeds the event schedule.
    device->metrics().set_warmup_ns(
        first + static_cast<Duration>(config.warmup_fraction *
                                      static_cast<double>(last - first)));
  }
  device->submit(requests);
  return device;
}

RunResult run_with_strategy(std::span<const sim::IoRequest> requests,
                            const Strategy& strategy,
                            std::span<const TenantProfile> profiles,
                            const RunConfig& config) {
  return run_with_strategy_switch(requests, strategy, strategy, 0, profiles,
                                  config);
}

RunResult run_with_strategy_switch(std::span<const sim::IoRequest> requests,
                                   const Strategy& base,
                                   const Strategy& strategy,
                                   std::uint64_t switch_at,
                                   std::span<const TenantProfile> profiles,
                                   const RunConfig& config) {
  // Without a prefix, build for `strategy` directly: stopping before
  // arrival 0 to reconfigure could already fire a scheduled power cut.
  auto device = make_run_device(requests, switch_at == 0 ? strategy : base,
                                profiles, config);
  try {
    if (switch_at > 0) {
      device->run_until_arrival(switch_at);
      configure_ssd(*device, strategy, profiles, config.hybrid_page_allocation);
    }
    device->run_to_completion();
  } catch (const ftl::DeviceFullError& e) {
    return summarize_device_full(*device, e, "runner");
  }
  return summarize(*device);
}

RunResult summarize_device_full(ssd::Ssd& device,
                                const ftl::DeviceFullError& error,
                                std::string_view context) {
  // Degrade gracefully: report what completed instead of crashing the
  // replay. The failed placement is recorded so callers can see which
  // tenant ran the device out of space.
  ++device.metrics().counters().failed_requests;
  std::ostringstream reason;
  reason << "device full: tenant " << error.tenant() << " lpn "
         << error.lpn() << " could not be placed";
  log_warn() << context << ": " << reason.str() << "; replay stopped early";
  RunResult result = summarize(device);
  result.device_full = true;
  result.device_full_tenant = error.tenant();
  result.abort_reason = reason.str();
  return result;
}

double summarize_total_us(const ssd::Ssd& device) {
  return device.metrics().aggregate_sums().total_us();
}

RunResult summarize(const ssd::Ssd& device) {
  RunResult result;
  const auto& metrics = device.metrics();
  const sim::LatencySums sums = metrics.aggregate_sums();
  result.avg_read_us = sums.avg_read_us();
  result.avg_write_us = sums.avg_write_us();
  result.total_us = sums.total_us();
  result.p99_read_us = metrics.aggregate_percentile(sim::OpType::kRead, 99.0);
  result.p99_write_us =
      metrics.aggregate_percentile(sim::OpType::kWrite, 99.0);
  result.per_tenant = metrics.summaries();
  result.counters = metrics.counters();
  for (const auto& [id, t] : result.per_tenant) {
    result.slo_violations += t.slo_violations;
  }
  return result;
}

std::map<sim::TenantId, double> isolated_baselines(
    std::span<const sim::IoRequest> requests,
    std::span<const TenantProfile> profiles, const RunConfig& config) {
  std::map<sim::TenantId, double> baselines;
  for (const TenantProfile& profile : profiles) {
    std::vector<sim::IoRequest> own;
    for (const sim::IoRequest& req : requests) {
      if (req.tenant == profile.id) own.push_back(req);
    }
    if (own.empty()) continue;
    RunConfig solo = config;
    solo.tracer = nullptr;           // baseline is a score, not a trace
    solo.ssd.sched = {};             // unshaped: FIFO, unlimited window
    const TenantProfile alone[] = {profile};
    // Strategy{} shares every channel, so the lone tenant sees the whole
    // device — the denominator of the paper-style slowdown ratio.
    const RunResult r = run_with_strategy(own, Strategy{}, alone, solo);
    if (r.device_full || r.total_us <= 0.0) continue;
    baselines.emplace(profile.id, r.total_us);
  }
  return baselines;
}

void apply_fairness(RunResult& result,
                    const std::map<sim::TenantId, double>& baselines) {
  result.tenant_slowdown.clear();
  result.worst_slowdown = 0.0;
  result.jain_index = 0.0;
  std::vector<double> slowdowns;
  for (const auto& [id, t] : result.per_tenant) {
    if (id == sim::kInternalTenant) continue;
    const auto it = baselines.find(id);
    if (it == baselines.end() || it->second <= 0.0) continue;
    const double slowdown = t.total_us() / it->second;
    result.tenant_slowdown.emplace(id, slowdown);
    result.worst_slowdown = std::max(result.worst_slowdown, slowdown);
    slowdowns.push_back(slowdown);
  }
  result.jain_index = sched::jain_index(slowdowns);
}

}  // namespace ssdk::core
