// Hot-device detection and fork-measured migration trials — the fleet
// tier's load-balancing half (Serifos' migration protocol, adapted to the
// simulator).
//
// Hotness is read from the telemetry rollup engine: each device's
// per-epoch rollup collapses to a RollupSummary whose heat() (weighted
// read+write p99 over rolling windows) ranks devices against the fleet
// median. Destination choice is not guessed from counters: every
// candidate is scored by fork()ing the destination device and replaying a
// trial slice of the would-be-migrated tenant's upcoming traffic next to
// the destination's own — the same what-if methodology as the keeper's
// fork-measured mode, so a migration is committed only when the measured
// trial beats staying put. The trials share the keeper's fan-out, argmin
// and suffix-latency score (core/trial.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/request.hpp"
#include "ssd/ssd.hpp"
#include "telemetry/rollup.hpp"
#include "util/time_types.hpp"

namespace ssdk::fleet {

struct MigrationConfig {
  bool enabled = true;
  /// A device is hot when its heat() is at least this multiple of the
  /// fleet's median heat (and non-zero), or when its rolling-window mean
  /// bus utilization reaches 0.9 (saturated devices are hot even when
  /// every device is equally slow).
  double hot_heat_ratio = 1.3;
  /// Migrations committed per epoch boundary, fleet-wide.
  std::uint32_t max_per_epoch = 2;
};

/// Flag hot devices: heat >= hot_heat_ratio x (fleet median heat) and
/// non-zero, or mean bus utilization >= 0.9. Index-aligned with
/// `summaries` (one entry per device, ordered by device id).
std::vector<bool> detect_hot_devices(
    std::span<const telemetry::RollupSummary> summaries,
    const MigrationConfig& config);

/// What-if trial: fork `device`, replay `trial` on the fork, and return
/// the mean total latency (avg read + avg write, us) of the trial's
/// completions — the suffix the trial adds beyond the parent's history
/// (core::score_fork_trial). A trial that fills the device scores
/// +infinity. The parent is not mutated; the fork is discarded.
double score_placement(const ssd::Ssd& device,
                       std::span<const sim::IoRequest> trial);

}  // namespace ssdk::fleet
