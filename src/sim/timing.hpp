// Flash and bus timing parameters (paper Table I plus the channel transfer
// rate SSDSim models). The channel bus is occupied for page transfers in
// both directions; the chip is occupied for the flash array operation and,
// for reads, also while its data is being shifted out.
#pragma once

#include <cstdint>
#include <string>

#include "sim/geometry.hpp"
#include "util/time_types.hpp"

namespace ssdk::sim {

struct Timing {
  Duration read_ns = 20 * kMicrosecond;      ///< flash array read
  Duration program_ns = 200 * kMicrosecond;  ///< flash array program
  Duration erase_ns = 1500 * kMicrosecond;   ///< block erase (1.5 ms)
  /// Channel transfer cost per byte. Default models an ONFI-class bus at
  /// ~400 MB/s: a 16 KB page takes ~41 us on the wire, so the channel is a
  /// genuine point of contention (the effect SSDKeeper manages).
  double xfer_ns_per_byte = 2.5;
  /// Fixed command/addressing overhead per bus transaction.
  Duration cmd_overhead_ns = 200;
  /// Read-retry sensing latency (fault model): attempt k re-occupies the
  /// plane for read_retry_base_ns + (k-1) * read_retry_step_ns before its
  /// data is shifted out over the bus again. Escalation models the
  /// progressively wider reference-voltage sweeps real controllers issue.
  Duration read_retry_base_ns = 35 * kMicrosecond;
  Duration read_retry_step_ns = 15 * kMicrosecond;

  static Timing paper() { return Timing{}; }

  /// Throws std::invalid_argument unless xfer_ns_per_byte is finite and
  /// >= 0 and page_transfer_ns(g) fits a Duration: that function casts
  /// rate x page size to an integer, which a NaN, a negative or an
  /// out-of-range product makes undefined.
  void validate(const Geometry& g) const;

  /// Plane occupancy of retry attempt `attempt` (1-based).
  Duration read_retry_ns(std::uint32_t attempt) const {
    return read_retry_base_ns +
           static_cast<Duration>(attempt > 0 ? attempt - 1 : 0) *
               read_retry_step_ns;
  }

  /// Bus occupancy for moving one page (+ command overhead).
  Duration page_transfer_ns(const Geometry& g) const {
    // ssdk-lint: allow(float-time): pure function of fixed configuration
    // (rate x page size); every call yields the same integer, so nothing
    // accumulates and no schedule drift is possible.
    return cmd_overhead_ns +
           static_cast<Duration>(xfer_ns_per_byte *
                                 static_cast<double>(g.page_size_bytes));
  }

  /// Chip occupancy of a full write (transfer + program).
  Duration write_service_ns(const Geometry& g) const {
    return page_transfer_ns(g) + program_ns;
  }

  /// Unloaded read latency (array read + transfer).
  Duration read_service_ns(const Geometry& g) const {
    return read_ns + page_transfer_ns(g);
  }

  std::string describe(const Geometry& g) const;
};

}  // namespace ssdk::sim
