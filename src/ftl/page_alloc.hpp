// Page-allocation policies: where (channel, chip, plane) a logical write
// lands. The paper's hybrid page allocator chooses *static* placement for
// read-dominated tenants (successive LPNs stripe across channels, so large
// reads exploit parallelism) and *dynamic* placement for write-dominated
// tenants (writes go to the least-loaded allowed channel/chip).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/geometry.hpp"
#include "sim/request.hpp"
#include "util/time_types.hpp"

namespace ssdk::ftl {

enum class AllocMode : std::uint8_t { kStatic, kDynamic };

/// Live load information the dynamic policy consults; implemented by the
/// device model (queue depths and busy horizons). A plain virtual
/// interface rather than std::function members: dynamic placement probes
/// every allowed channel on every placed page, and type-erased callbacks
/// put a heap-indirect call on that inner loop. The destructor is
/// protected — the policy only ever borrows a view, never owns one.
class LoadView {
 public:
  /// Estimated ns until the channel bus could take a new transfer.
  virtual Duration channel_backlog(std::uint32_t channel) const = 0;
  /// Estimated ns until the (global) chip could take a new operation.
  virtual Duration chip_backlog(std::uint32_t global_chip) const = 0;

 protected:
  ~LoadView() = default;
};

/// Target of a placement decision: a plane (block/page are chosen by the
/// block manager's append point).
struct PlaneTarget {
  std::uint32_t channel = 0;
  std::uint32_t chip = 0;   ///< within channel
  std::uint32_t plane = 0;  ///< within chip

  std::uint64_t plane_id(const sim::Geometry& g) const {
    return (static_cast<std::uint64_t>(g.chip_id(channel, chip))) *
               g.planes_per_chip +
           plane;
  }
};

/// Static placement: stripes LPNs channel-first over the tenant's allowed
/// channel set, then over chips, then planes. Deterministic in (lpn,
/// channels), which is what gives sequential reads their parallelism.
/// Inline: runs once per placed page. The power-of-two tests are spelled
/// out, as in Geometry::decode: at the baseline x86-64 ISA,
/// std::has_single_bit compiles to a libgcc popcount call.
inline PlaneTarget static_place(const sim::Geometry& g,
                                const std::vector<std::uint32_t>& channels,
                                std::uint64_t lpn) {
  assert(!channels.empty());
  const std::uint64_t n = channels.size();
  const std::uint64_t chips = g.chips_per_channel;
  const std::uint64_t planes = g.planes_per_chip;
  PlaneTarget t;
  if ((n & (n - 1)) == 0 && (chips & (chips - 1)) == 0 &&
      (planes & (planes - 1)) == 0) {
    // Power-of-two strides (every stock geometry; on 8 channels the
    // strategy space yields sets of every size from 1 to 8, and sizes 1,
    // 2, 4 and 8 take this path): shift/mask, no integer division on the
    // per-page-write path.
    const int n_shift = std::countr_zero(n);
    const int chip_shift = std::countr_zero(chips);
    t.channel = channels[lpn & (n - 1)];
    t.chip = static_cast<std::uint32_t>((lpn >> n_shift) & (chips - 1));
    t.plane = static_cast<std::uint32_t>(
        (lpn >> (n_shift + chip_shift)) & (planes - 1));
  } else {
    t.channel = channels[lpn % n];
    t.chip = static_cast<std::uint32_t>((lpn / n) % chips);
    t.plane = static_cast<std::uint32_t>((lpn / (n * chips)) % planes);
  }
  return t;
}

/// Dynamic placement: least-backlogged allowed channel, then least-
/// backlogged chip on it; plane chosen round-robin via `rr_counter`
/// (incremented by the call). Ties break toward lower indices so results
/// are deterministic.
///
/// Templated on the load view's concrete type: the device model passes
/// its final LoadViewImpl, so the two backlog probes on the inner loop
/// devirtualize and inline instead of dispatching through the LoadView
/// vtable per allowed channel and chip. Probe order (ascending channel,
/// then ascending chip) and tie-breaks are part of the schedule contract
/// — identical inputs must yield identical placements on any path.
template <typename Load>
PlaneTarget dynamic_place(const sim::Geometry& g,
                          const std::vector<std::uint32_t>& channels,
                          const Load& load, std::uint64_t& rr_counter) {
  assert(!channels.empty());
  // Least-backlogged channel among the allowed set.
  std::uint32_t best_channel = channels.front();
  Duration best_cb = std::numeric_limits<Duration>::max();
  for (const std::uint32_t ch : channels) {
    const Duration cb = load.channel_backlog(ch);
    if (cb < best_cb) {
      best_cb = cb;
      best_channel = ch;
    }
  }
  // Least-backlogged chip on that channel.
  std::uint32_t best_chip = 0;
  Duration best_chb = std::numeric_limits<Duration>::max();
  for (std::uint32_t c = 0; c < g.chips_per_channel; ++c) {
    const Duration chb = load.chip_backlog(g.chip_id(best_channel, c));
    if (chb < best_chb) {
      best_chb = chb;
      best_chip = c;
    }
  }
  PlaneTarget t;
  t.channel = best_channel;
  t.chip = best_chip;
  t.plane = static_cast<std::uint32_t>(rr_counter++ % g.planes_per_chip);
  return t;
}

}  // namespace ssdk::ftl
