// Flash translation layer facade: address mapping + block management +
// per-tenant placement policy + garbage-collection bookkeeping.
//
// The FTL is deliberately time-free: it decides *where* data lives; the
// device model (src/ssd) decides *when* operations execute and drives GC
// migrations through the same timed pipeline as host I/O.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ftl/block_manager.hpp"
#include "ftl/mapping.hpp"
#include "ftl/oob.hpp"
#include "ftl/page_alloc.hpp"
#include "ftl/recovery.hpp"
#include "sim/geometry.hpp"
#include "sim/request.hpp"
#include "telemetry/tracer.hpp"

namespace ssdk::ftl {

struct FtlConfig {
  /// GC starts when a plane's free-block count drops to this value...
  std::uint32_t gc_trigger_free_blocks = 2;
  /// ...and runs until the plane is back above this value.
  std::uint32_t gc_target_free_blocks = 3;
  /// Static wear leveling: when a plane's (max - min) erase gap exceeds
  /// this, the coldest Full block is force-migrated so its low-wear block
  /// re-enters rotation. 0 disables (allocation-time wear leveling only).
  std::uint64_t wear_gap_threshold = 0;
};

/// Thrown when a write cannot be placed anywhere in the tenant's allowed
/// channel set (device full even after GC had its chance). Carries the
/// tenant and LPN that could not be placed so callers can degrade
/// gracefully with a per-tenant report instead of crashing the replay.
class DeviceFullError : public std::runtime_error {
 public:
  explicit DeviceFullError(sim::TenantId tenant = sim::kInternalTenant,
                           std::uint64_t lpn = 0)
      : std::runtime_error("ftl: no free page available"),
        tenant_(tenant),
        lpn_(lpn) {}

  sim::TenantId tenant() const { return tenant_; }
  std::uint64_t lpn() const { return lpn_; }

 private:
  sim::TenantId tenant_;
  std::uint64_t lpn_;
};

class Ftl {
 public:
  Ftl(const sim::Geometry& geometry, FtlConfig config = {});

  const sim::Geometry& geometry() const { return geom_; }
  const FtlConfig& config() const { return config_; }

  // --- tenant policy -----------------------------------------------------

  /// Restrict a tenant's new writes (and read prepopulation) to a channel
  /// set. Defaults to all channels (the paper's Shared baseline).
  /// The const queries below never install a policy: a tenant without
  /// one reads the defaults its first write would install.
  void set_tenant_channels(sim::TenantId tenant,
                           std::vector<std::uint32_t> channels);
  const std::vector<std::uint32_t>& tenant_channels(
      sim::TenantId tenant) const;

  void set_tenant_alloc_mode(sim::TenantId tenant, AllocMode mode);
  AllocMode tenant_alloc_mode(sim::TenantId tenant) const;

  // --- host path ----------------------------------------------------------

  /// Translate a read. Unmapped LPNs are prepopulated (static placement,
  /// no timing cost) as if the data had been written before the simulation
  /// started — read-only workloads then exercise real locations.
  sim::Ppn translate_read(sim::TenantId tenant, std::uint64_t lpn);

  /// Place a write according to the tenant's mode, invalidate the previous
  /// location, install the new mapping. Throws DeviceFullError when no
  /// allowed plane has a free page. Templated on the load view's concrete
  /// type so the device model's backlog probes devirtualize (see
  /// dynamic_place); the placement decision is identical for any Load.
  template <typename Load>
  sim::Ppn allocate_write(sim::TenantId tenant, std::uint64_t lpn,
                          const Load& load) {
    auto& policy = policy_for(tenant);
    const PlaneTarget target =
        policy.mode == AllocMode::kStatic
            ? static_place(geom_, policy.channels, lpn)
            : dynamic_place(geom_, policy.channels, load,
                            policy.rr_counter);
    return finish_host_write(tenant, lpn, target, policy.channels);
  }

  /// Host discard: drop the mapping and invalidate the physical page.
  /// Returns true when the LPN was mapped (false = no-op trim).
  bool trim(sim::TenantId tenant, std::uint64_t lpn);

  // --- garbage collection --------------------------------------------------

  bool needs_gc(std::uint64_t plane_id) const;
  bool gc_satisfied(std::uint64_t plane_id) const;
  std::optional<std::uint32_t> select_victim(std::uint64_t plane_id) const;
  /// Clears `out` and fills it with the block's valid PPNs, reusing its
  /// capacity (GC hot loop).
  void valid_pages_into(std::uint64_t plane_id, std::uint32_t block,
                        std::vector<sim::Ppn>& out) const;

  /// Destination page for migrating `src` (same plane). Returns
  /// kInvalidPpn when the plane has no free page (GC cannot proceed).
  sim::Ppn allocate_migration(std::uint64_t plane_id);

  /// Finish a migration: if the mapping still points at `src`, repoint it
  /// to `dst` and transfer validity; otherwise (the LPN was overwritten
  /// mid-flight) the freshly written dst page is immediately invalid.
  /// Returns true when the migrated data is still live.
  bool complete_migration(sim::Ppn src, sim::Ppn dst);

  void erase_block(std::uint64_t plane_id, std::uint32_t block);

  /// Static wear-leveling candidate: the coldest Full block, but only when
  /// the feature is enabled and the plane's wear gap exceeds the
  /// threshold.
  std::optional<std::uint32_t> wear_leveling_candidate(
      std::uint64_t plane_id) const;

  // --- fault handling (driven by the device model) -------------------------

  std::uint32_t record_program_fail(std::uint64_t plane_id,
                                    std::uint32_t block) {
    return blocks_.record_program_fail(plane_id, block);
  }
  std::uint32_t record_erase_fail(std::uint64_t plane_id,
                                  std::uint32_t block) {
    return blocks_.record_erase_fail(plane_id, block);
  }
  void retire_block(std::uint64_t plane_id, std::uint32_t block) {
    blocks_.retire_block(plane_id, block);
    if (tracer_) {
      tracer_->record_point(trace_now(), telemetry::SpanKind::kBlockRetire,
                            sim::kInternalTenant, plane_channel(plane_id),
                            static_cast<std::uint32_t>(plane_id), block);
    }
  }

  /// Migration target for rescuing pages off a retiring block: prefers the
  /// home plane, then its chip's sibling planes, then the whole device
  /// (losing data beats plane locality). kInvalidPpn when the device is
  /// truly full.
  sim::Ppn allocate_rescue(std::uint64_t plane_id);

  /// Undo the placement of a failed program: invalidate the bad page and,
  /// when the mapping still pointed at it, drop the mapping (the caller
  /// immediately re-places via rewrite_page). Returns false when the LPN
  /// was overwritten while the program was in flight — the data is
  /// superseded and no rewrite is needed.
  bool discard_failed_program(sim::TenantId tenant, std::uint64_t lpn,
                              sim::Ppn failed);

  /// Re-place a failed program's page, preferring a sibling plane on the
  /// same chip (the failing plane's open block is suspect). Marks valid
  /// and installs the mapping. Throws DeviceFullError when nothing is
  /// free.
  sim::Ppn rewrite_page(sim::TenantId tenant, std::uint64_t lpn,
                        const sim::PhysAddr& failed_addr);

  /// An uncorrectable GC/rescue read: the page's data is lost. Drops the
  /// mapping and invalidates the page so the victim block can still be
  /// erased or retired cleanly.
  void drop_lost_page(sim::Ppn ppn);

  // --- OOB metadata + power-loss recovery ----------------------------------

  /// Materialize the per-page OOB store (power model armed). Idempotent.
  void enable_oob() { oob_.enable(geom_); }
  OobStore& oob() { return oob_; }
  const OobStore& oob() const { return oob_; }

  /// Power-up mount: full-device OOB scan rebuilding the L2P map (highest
  /// sequence number wins, lowest PPN breaks ties), block states, free
  /// lists and valid counts; unknown blocks are re-erased; torn/failed
  /// pages discarded. The device model charges the report's scan reads and
  /// re-erases as mount time. Requires enable_oob().
  RecoveryReport recover_after_power_loss();

  // --- introspection --------------------------------------------------------

  /// Full FTL audit: whole-step table spans, block bookkeeping, and the
  /// L2P bijection in both directions — every mapped LPN points at a valid
  /// page whose recorded owner is that (tenant, LPN), and every valid
  /// physical page is reachable through its owner's mapping. Throws
  /// util::InvariantViolation on the first breach. O(total pages); meant
  /// for checked-build audits, not the hot path.
  void check_invariants() const;

  MappingTable& mapping() { return map_; }
  const MappingTable& mapping() const { return map_; }
  BlockManager& blocks() { return blocks_; }
  const BlockManager& blocks() const { return blocks_; }

  // --- telemetry ------------------------------------------------------------

  /// The FTL is time-free, so the owning device supplies the simulation
  /// clock alongside the sink. Placement and GC decisions are recorded as
  /// point events; a null tracer keeps every hook a single branch.
  void set_tracer(telemetry::Tracer* tracer, const SimTime* now) {
    tracer_ = tracer;
    trace_now_ = now;
  }

  // --- snapshot -------------------------------------------------------------

  /// Serialize mapping, block manager, and per-tenant policies. Geometry
  /// and config are reconstructed from the device options by the snapshot
  /// layer; the tracer is a non-owning observer and is not captured.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  struct TenantPolicy {
    std::vector<std::uint32_t> channels;
    AllocMode mode = AllocMode::kStatic;
    std::uint64_t rr_counter = 0;  // dynamic-placement plane rotation
  };

  TenantPolicy& policy_for(sim::TenantId tenant);

  /// Tail of allocate_write after the placement decision: allocate at or
  /// near the target, install mapping + validity, invalidate the old
  /// copy, trace. Out of line — only the placement dispatch is templated.
  sim::Ppn finish_host_write(sim::TenantId tenant, std::uint64_t lpn,
                             const PlaneTarget& target,
                             const std::vector<std::uint32_t>& channels);

  /// Allocate a page at/near `target`, falling back to sibling planes,
  /// chips and allowed channels when full. kInvalidPpn if nothing free.
  sim::Ppn allocate_near(const PlaneTarget& target,
                         const std::vector<std::uint32_t>& channels);

  SimTime trace_now() const { return trace_now_ ? *trace_now_ : 0; }
  std::uint32_t plane_channel(std::uint64_t plane_id) const {
    return static_cast<std::uint32_t>(plane_id / geom_.planes_per_channel());
  }

  // ssdk-snap: skip(geom_): fixed at construction; a loaded device is built from the OPTS geometry before load_state runs
  sim::Geometry geom_;
  // ssdk-snap: skip(config_): construction-time configuration, reconstructed from OPTS on load
  FtlConfig config_;
  MappingTable map_;
  BlockManager blocks_;
  OobStore oob_;
  // ssdk-snap: skip(all_channels_): derived channel list [0, channels) computed from geometry at construction
  std::vector<std::uint32_t> all_channels_;
  std::vector<TenantPolicy> policies_;
  // ssdk-snap: skip(tracer_): non-owning observer, explicitly not captured (see save_state doc comment)
  telemetry::Tracer* tracer_ = nullptr;
  // ssdk-snap: skip(trace_now_): non-owning pointer to the owner's clock, rewired by the owner after load
  const SimTime* trace_now_ = nullptr;
};

}  // namespace ssdk::ftl
