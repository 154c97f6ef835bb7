// Glue between workloads, strategies and the device: run a mixed request
// stream on a freshly configured SSD and summarize the latencies the paper
// reports.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/strategy.hpp"
#include "ftl/ftl.hpp"
#include "sim/metrics.hpp"
#include "sim/request.hpp"
#include "ssd/ssd.hpp"

namespace ssdk::core {

struct RunConfig {
  ssd::SsdOptions ssd;
  /// Paper Section IV.E: static page allocation for read-dominated
  /// tenants, dynamic for write-dominated ones. When false, every tenant
  /// uses static allocation (the traditional FTL default).
  bool hybrid_page_allocation = false;
  /// Fraction of the request stream's arrival span treated as warmup:
  /// requests arriving in that prefix are executed but excluded from the
  /// latency statistics. 0 = measure everything.
  double warmup_fraction = 0.0;
  /// Optional lifecycle tracer (non-owning; must outlive the run). The
  /// device records per-request spans into it; nullptr = telemetry off.
  telemetry::Tracer* tracer = nullptr;
  /// Audit the device invariants every N handled arrivals (see
  /// Ssd::set_audit_interval). 0 keeps the build's default: disabled in
  /// normal builds, every 4096 arrivals under SSDK_CHECKED. Audits never
  /// change the schedule — a violation throws instead.
  std::uint64_t audit_interval = 0;
};

/// What a finished replay reports: device-wide latency means and tails,
/// per-tenant summaries and the device counters. It holds no latency
/// samples — every reader uses counts, sums and counters — so keeping many
/// results costs O(tenants) each; per-tenant distributions come from the
/// device's metrics() (MetricsCollector::tenant, all_tenants).
struct RunResult {
  double avg_read_us = 0.0;
  double avg_write_us = 0.0;
  /// Sum of average read and average write latency (paper Section III.B).
  double total_us = 0.0;
  /// Tail latencies (the paper reports averages only; tails often tell a
  /// sharper story about conflicts).
  double p99_read_us = 0.0;
  double p99_write_us = 0.0;
  /// Per-tenant counts, latency sums, and reliability and SLO counters
  /// (kInternalTenant included when GC traffic recorded any). Their
  /// total_us() equals the device's TenantMetrics::total_us() bit for bit.
  std::map<sim::TenantId, sim::TenantSummary> per_tenant;
  sim::DeviceCounters counters;
  /// Total SLO-target misses across tenants (nonzero only when the run's
  /// scheduler config carries slo_target_us entries).
  std::uint64_t slo_violations = 0;
  /// Fairness block — populated by apply_fairness() from per-tenant
  /// isolated baselines, zero/empty otherwise. Slowdown is this run's
  /// tenant total_us over the tenant's total_us running alone on the
  /// whole device; jain_index is Jain's fairness index over those
  /// slowdowns (1 = perfectly fair).
  std::map<sim::TenantId, double> tenant_slowdown;
  double worst_slowdown = 0.0;
  double jain_index = 0.0;
  /// Replay aborted because a write could not be placed anywhere in the
  /// offending tenant's channel set. The latencies above cover everything
  /// completed up to that point.
  bool device_full = false;
  sim::TenantId device_full_tenant = 0;
  std::string abort_reason;
};

/// Configure an already-constructed SSD for (strategy, tenants, hybrid).
void configure_ssd(ssd::Ssd& device, const Strategy& strategy,
                   std::span<const TenantProfile> profiles,
                   bool hybrid_page_allocation);

/// Run the stream under one strategy on a fresh device.
RunResult run_with_strategy(std::span<const sim::IoRequest> requests,
                            const Strategy& strategy,
                            std::span<const TenantProfile> profiles,
                            const RunConfig& config);

/// Build a fresh device ready to replay `requests`: constructed from the
/// config, configured for `strategy`, warmup window set, full stream
/// submitted — but not yet run. The shared-prefix fork sweep drives the
/// returned device to the switch point once and fork()s it per strategy;
/// run_with_strategy_switch uses the same factory so both paths start from
/// byte-identical devices.
std::unique_ptr<ssd::Ssd> make_run_device(
    std::span<const sim::IoRequest> requests, const Strategy& strategy,
    std::span<const TenantProfile> profiles, const RunConfig& config);

/// Run the stream with `base` governing the first `switch_at` requests and
/// `strategy` taking over from request index `switch_at` onward: the
/// fork-at-decision methodology executed cold, the label sweep's cold
/// engine. switch_at = 0 degenerates to run_with_strategy(strategy).
RunResult run_with_strategy_switch(std::span<const sim::IoRequest> requests,
                                   const Strategy& base,
                                   const Strategy& strategy,
                                   std::uint64_t switch_at,
                                   std::span<const TenantProfile> profiles,
                                   const RunConfig& config);

/// Summarize a finished device's metrics: means from the running sums,
/// each p99 selected on one merged sample copy, O(tenants) summaries.
RunResult summarize(const ssd::Ssd& device);

/// total_us only (avg read + avg write), from the metrics' running sums —
/// same value summarize().total_us reports, without copying any latency
/// samples or computing percentiles. Under the latency objective the label
/// sweep's fork trials need nothing else, once per distinct channel map.
double summarize_total_us(const ssd::Ssd& device);

/// Degrade a device-full abort gracefully: bump the failure counter, warn
/// once through util/logger with `context` ("runner", "keeper", ...), and
/// return the partial result with device_full/abort_reason populated.
RunResult summarize_device_full(ssd::Ssd& device,
                                const ftl::DeviceFullError& error,
                                std::string_view context);

/// Per-tenant isolated baselines: replay each tenant's own requests alone
/// on a fresh full-width device (Strategy{} = all channels shared, default
/// scheduler) and return tenant -> total_us. Telemetry and scheduler
/// shaping are stripped so the baseline measures the workload, not the
/// policy under test. Tenants whose isolated run aborts or records no
/// samples are omitted.
std::map<sim::TenantId, double> isolated_baselines(
    std::span<const sim::IoRequest> requests,
    std::span<const TenantProfile> profiles, const RunConfig& config);

/// Fill `result`'s fairness block (tenant_slowdown, worst_slowdown,
/// jain_index) from per-tenant isolated baselines. Tenants absent from
/// `baselines` or with a zero baseline are skipped; the internal (GC)
/// tenant never participates.
void apply_fairness(RunResult& result,
                    const std::map<sim::TenantId, double>& baselines);

}  // namespace ssdk::core
