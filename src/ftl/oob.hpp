// Per-page out-of-band (OOB) metadata model — the durable breadcrumbs a
// real FTL writes into each flash page's spare area so the logical state
// can be rebuilt from flash alone after a power loss.
//
// For every programmed page the store records the owning (tenant, LPN)
// and a device-global, monotonically increasing write sequence number.
// Sequence numbers are assigned in L2P-update order (page allocation
// order), so "highest sequence number wins" resolves every conflict a
// recovery scan can encounter: host rewrites, GC copies of superseded
// data, and programs replayed after a failed attempt. GC migrations copy
// the source page's OOB verbatim — a migrated page is the *same* version,
// not a newer one, which is what makes the crash-mid-migration case safe
// (either copy wins ties by lower PPN; data is neither lost nor counted
// twice).
//
// The store is populated lazily: a device without a power model never
// materializes the vectors and pays nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/geometry.hpp"
#include "sim/request.hpp"
#include "snapshot/archive.hpp"

namespace ssdk::ftl {

/// Physical readability of one page's data + OOB area.
enum class OobState : std::uint8_t {
  kErased = 0,  ///< never programmed since the last block erase
  kData = 1,    ///< programmed to completion; OOB readable
  kTorn = 2,    ///< program was in flight at a power cut; unreadable
  kFailed = 3,  ///< program failed or media died; unreadable, not torn
};

class OobStore {
 public:
  /// Packed owner mirroring the block manager's layout: tenant in the top
  /// 24 bits, LPN in the low 40. kNoOwner = no readable OOB.
  static constexpr std::uint64_t kNoOwner = ~std::uint64_t{0};
  static constexpr std::uint64_t kLpnMask = (1ULL << 40) - 1;

  static std::uint64_t pack_owner(sim::TenantId tenant, std::uint64_t lpn) {
    return (static_cast<std::uint64_t>(tenant) << 40) | (lpn & kLpnMask);
  }
  static sim::TenantId owner_tenant(std::uint64_t packed) {
    return static_cast<sim::TenantId>(packed >> 40);
  }
  static std::uint64_t owner_lpn(std::uint64_t packed) {
    return packed & kLpnMask;
  }

  /// Materialize the per-page vectors. Idempotent.
  void enable(const sim::Geometry& geometry);
  bool enabled() const { return enabled_; }

  /// Next global write sequence number. Drawn once per page placement, in
  /// the same order the L2P map is updated.
  std::uint64_t fresh_seq() { return next_seq_++; }
  std::uint64_t next_seq() const { return next_seq_; }

  /// A program completed: the page's OOB now carries (owner, seq).
  void record_program(sim::Ppn ppn, sim::TenantId tenant, std::uint64_t lpn,
                      std::uint64_t seq);
  /// A GC/rescue migration program completed: dst inherits src's OOB
  /// verbatim (same logical version, same sequence number).
  void record_migration(sim::Ppn src, sim::Ppn dst);
  /// The page's program was in flight at a power cut.
  void record_torn(sim::Ppn ppn);
  /// The page is dead: failed program, or media loss during GC.
  void record_failed(sim::Ppn ppn);

  /// A block erase completed: reset `count` pages starting at `first`.
  void erase_range(sim::Ppn first, std::uint32_t count);

  OobState state(sim::Ppn ppn) const { return state_[ppn]; }
  std::uint64_t owner(sim::Ppn ppn) const { return owner_[ppn]; }
  std::uint64_t seq(sim::Ppn ppn) const { return seq_[ppn]; }

  /// An erase was in flight at a power cut: the whole block's contents are
  /// unknown and must be re-erased at mount.
  void mark_block_unknown(std::uint64_t global_block);
  void clear_block_unknown(std::uint64_t global_block);
  bool block_unknown(std::uint64_t global_block) const {
    return unknown_blocks_[global_block] != 0;
  }

  /// OOB-internal consistency: states are legal enum values, (owner, seq)
  /// are present exactly on kData pages, and every sequence number is
  /// below the allocation cursor. Throws util::InvariantViolation.
  void check_invariants() const;

  void save_state(snapshot::StateWriter& w) const;
  /// Throws SnapshotError, at the offending field's offset, on any state
  /// check_invariants refuses, and on an unknown-block flag other than 0
  /// or 1.
  void load_state(snapshot::StateReader& r, const sim::Geometry& geometry);

 private:
  // ssdk-snap: skip(enabled_): construction-time switch (PowerModel.enabled); a loaded device re-arms it from its options
  bool enabled_ = false;
  std::uint64_t next_seq_ = 1;  // 0 is never a valid recorded seq
  std::vector<std::uint64_t> owner_;    // kNoOwner unless kData
  std::vector<std::uint64_t> seq_;      // 0 unless kData
  std::vector<OobState> state_;         // per physical page
  std::vector<std::uint8_t> unknown_blocks_;  // per global block id
};

}  // namespace ssdk::ftl
