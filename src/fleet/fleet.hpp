// Fleet-scale simulation: tens-to-hundreds of independent device
// simulations driven concurrently on one thread pool, with a
// consolidation tier on top (DESIGN.md §15).
//
// One fleet run is a sequence of epochs. Within an epoch every device
// advances independently — one deterministic, seeded Ssd (plus optional
// per-device SSDKeeper) per device, executed as a parallel_map task so
// results merge in device-id order no matter which worker finishes first.
// Between epochs the fleet tier decides serially on the merged telemetry:
// rollup summaries rank devices by heat, hot devices nominate their
// heaviest writer for migration, and candidate destinations are scored by
// Ssd::fork() what-if trials before any move commits. One victim's trials
// run as pool tasks whose scores merge by index. Every cross-device
// decision therefore sees the same inputs in the same order on every
// thread count, which is what makes a fleet run bit-reproducible at 1, 4
// or 16 workers (tested).
//
// Tenant traffic is a pure function of (fleet seed, tenant id, epoch):
// epoch workloads are regenerated per epoch from a per-tenant
// SyntheticSpec template, so a migrated tenant's future traffic replays
// identically on its new device and what-if trials can preview the next
// epoch without consuming shared RNG state.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/keeper.hpp"
#include "core/runner.hpp"
#include "fleet/migration.hpp"
#include "fleet/placement.hpp"
#include "ssd/ssd.hpp"
#include "telemetry/rollup.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"
#include "util/time_types.hpp"

namespace ssdk::fleet {

/// Device slots per device are capped by the features collector's
/// four-tenant limit: a device's local tenant ids are its slot numbers.
inline constexpr std::uint32_t kMaxSlots = 4;

/// One fleet tenant: a stable fleet-wide id plus the synthetic-traffic
/// template its per-epoch workload is generated from. `traffic.seed` is
/// ignored — the per-epoch seed derives from (fleet seed, id, epoch).
struct TenantSpec {
  std::uint32_t id = 0;
  trace::SyntheticSpec traffic;
};

struct FleetConfig {
  std::uint32_t devices = 4;
  /// Tenants a device can host at once (1..kMaxSlots).
  std::uint32_t slots_per_device = kMaxSlots;
  std::uint32_t epochs = 3;
  /// Epoch length in simulated time. Generated arrivals beyond the epoch
  /// are dropped, so every epoch's traffic lies in
  /// [e * epoch_ns, (e+1) * epoch_ns).
  Duration epoch_ns = 50 * kMillisecond;
  std::uint64_t seed = 1;
  /// Per-device construction options (geometry, timing, FTL, ...).
  ssd::SsdOptions ssd;
  /// Per-device online keeper. Null = no keeper: tenants keep the FTL
  /// default policy (all channels, Shared) and only the fleet tier acts.
  /// One allocator is shared by every device's keeper, including devices
  /// running concurrently on different epoch workers — safe because the
  /// allocator is immutable after construction and its predict paths use
  /// per-call inference scratch.
  const core::ChannelAllocator* allocator = nullptr;
  core::KeeperConfig keeper;
  MigrationConfig migration;
  /// Fault injection on a device subset: every `faulty_device_stride`-th
  /// device (ids 0, s, 2s, ...) runs with `faults`; 0 disables. The subset
  /// is part of the configuration, so runs stay bit-reproducible.
  std::uint32_t faulty_device_stride = 0;
  sim::FaultModel faults;
  /// Also run every tenant alone on a fresh device (same traffic, same
  /// options) to report per-tenant slowdown vs. isolated execution.
  bool isolated_baseline = true;
};

/// One fork-measured destination trial.
struct MigrationTrial {
  std::uint32_t device = 0;
  double score_us = 0.0;
};

/// One committed (or evaluated) tenant move.
struct MigrationRecord {
  std::uint32_t epoch = 0;  ///< boundary after this epoch
  std::uint32_t tenant = 0;
  std::uint32_t from_device = 0;
  std::uint32_t to_device = 0;
  std::uint32_t from_slot = 0;
  std::uint32_t to_slot = 0;
  double stay_score_us = 0.0;  ///< fork-measured "do nothing" score
  double move_score_us = 0.0;  ///< winning destination's score
  /// Logical pages the tenant had written so far — the full copy
  /// footprint a real migration would move.
  std::uint64_t footprint_pages = 0;
  /// Copy traffic actually replayed on the destination (footprint capped
  /// at 1024 pages).
  std::uint64_t injected_pages = 0;
  /// Modeled cost of the full copy: footprint x (transfer + program).
  Duration modeled_cost_ns = 0;
  std::vector<MigrationTrial> trials;  ///< every scored destination
};

struct FleetDeviceResult {
  std::uint32_t device = 0;
  bool faulty = false;
  core::RunResult run;  ///< cumulative over all epochs
  /// Rollup summary of each epoch (hot-device detection input).
  std::vector<telemetry::RollupSummary> epoch_summaries;
};

struct FleetTenantResult {
  std::uint32_t tenant = 0;
  std::uint32_t initial_device = 0;
  std::uint32_t final_device = 0;
  std::uint32_t migrations = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double avg_read_us = 0.0;
  double avg_write_us = 0.0;
  double total_us = 0.0;  ///< avg read + avg write (paper Section III.B)
  double p99_read_us = 0.0;
  double p99_write_us = 0.0;
  /// Isolated-baseline total latency (0 when the baseline is disabled).
  double isolated_total_us = 0.0;
  /// total_us / isolated_total_us — the consolidation penalty this tenant
  /// paid for sharing a device (0 when the baseline is disabled).
  double slowdown = 0.0;
};

struct FleetResult {
  std::string policy;
  std::uint32_t devices = 0;
  std::uint32_t tenants = 0;
  std::uint32_t epochs = 0;
  std::uint64_t seed = 0;
  std::uint64_t total_requests = 0;
  std::vector<FleetDeviceResult> device_results;
  std::vector<FleetTenantResult> tenant_results;
  std::vector<MigrationRecord> migrations;
  /// Request-weighted aggregates across devices.
  double aggregate_p99_read_us = 0.0;
  double aggregate_p99_write_us = 0.0;
  double aggregate_total_us = 0.0;
  /// Mean per-tenant slowdown vs. isolated (0 when baseline disabled).
  double mean_slowdown = 0.0;
  /// Fairness over the per-tenant slowdowns: Jain index (1 = every tenant
  /// pays the same consolidation penalty) and the single worst slowdown.
  /// Both 0 when the isolated baseline is disabled.
  double jain_index = 0.0;
  double worst_slowdown = 0.0;

  /// FNV-1a over every numeric field (device, tenant and migration rows
  /// included). Two runs are treated as bit-identical iff their
  /// fingerprints match — the determinism tests compare this across
  /// thread counts.
  std::uint64_t fingerprint() const;
};

/// Deterministic synthetic tenant population for demos/benches: tenants
/// alternate read-heavy and moderate profiles, with a heavy sequential
/// writer at every `writer_stride`-th index (stride 0 = no heavy
/// writers). Request counts are sized to roughly fill `epoch_ns` at each
/// tenant's intensity.
std::vector<TenantSpec> make_tenant_specs(std::uint32_t count,
                                          std::uint32_t writer_stride,
                                          Duration epoch_ns);

/// Epoch traffic of one tenant: generated from the spec with seed
/// (fleet_seed, spec.id, epoch), clipped to the epoch and shifted to
/// absolute time. Pure function — used by the epoch workers and by
/// migration what-if trials alike.
std::vector<trace::TraceRecord> epoch_records(const TenantSpec& spec,
                                              std::uint64_t fleet_seed,
                                              std::uint32_t epoch,
                                              Duration epoch_ns);

/// Run a fleet: place tenants with `policy`, advance all devices epoch by
/// epoch on `pool`, consolidate between epochs. The result is
/// bit-identical for a fixed (config, tenants, policy) regardless of the
/// pool's thread count.
FleetResult run_fleet(const FleetConfig& config,
                      std::span<const TenantSpec> tenants,
                      const PlacementPolicy& policy, ThreadPool& pool);

/// Convenience overload owning a pool with `threads` workers.
FleetResult run_fleet(const FleetConfig& config,
                      std::span<const TenantSpec> tenants,
                      const PlacementPolicy& policy, std::size_t threads);

}  // namespace ssdk::fleet
