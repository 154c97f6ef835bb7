// Power-loss injection model: a scheduled sudden power-off plus the
// volatile-state semantics the device applies when it fires.
//
// Like the fault model, the power model is fully deterministic and
// disabled by default: a default-constructed PowerModel arms nothing,
// materializes no OOB metadata, and the device behaves bit-identically to
// the power-unaware simulator. With `enabled` set the FTL starts writing
// per-page out-of-band metadata (owner, global write sequence number) on
// every program so that a later power_off()/power_on() cycle can rebuild
// the logical-to-physical map from flash alone.
//
// What a power cut means (DESIGN.md §14):
//   * In-flight programs produce torn pages — the page is consumed but its
//     contents (and OOB) are unreadable; recovery discards it.
//   * In-flight erases leave the block in an unknown state; recovery
//     re-erases it before use.
//   * The DRAM write buffer and every queued-but-unstarted operation are
//     lost. Buffered pages were acked-volatile, and their loss is counted
//     per tenant.
//   * Durable state is exactly: flash contents + OOB, the bad-block table
//     (retired flags + erase counters), and nothing else.
#pragma once

#include <cstdint>
#include <string>

#include "util/time_types.hpp"

namespace ssdk::sim {

struct PowerModel {
  /// Master switch: arms OOB metadata tracking and allows power_off().
  /// Scheduled cuts below additionally require this to be set.
  bool enabled = false;

  /// Cut power at this simulation time (0 = no time-scheduled cut). The
  /// cut fires just before the first arrival or device event at or after
  /// this instant.
  SimTime cut_at_time = 0;

  /// Cut power immediately before handling the nth arrival (~0 = no
  /// arrival-scheduled cut). Counted over submitted requests, 0-based:
  /// cut_at_arrival = k fires after k arrivals have been handled.
  std::uint64_t cut_at_arrival = ~std::uint64_t{0};

  /// After a scheduled cut, immediately run recovery and resume the
  /// remaining workload (a crash-reboot-continue cycle). When false the
  /// run loop stops dead at the cut and the caller drives power_on().
  bool auto_recover = false;

  static PowerModel none() { return PowerModel{}; }

  /// True when a scheduled cut is armed (enabled + a trigger configured).
  bool cut_scheduled() const {
    return enabled &&
           (cut_at_time > 0 || cut_at_arrival != ~std::uint64_t{0});
  }

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  std::string describe() const;
};

}  // namespace ssdk::sim
