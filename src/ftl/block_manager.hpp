// Physical block bookkeeping: free lists, open (append-point) blocks,
// per-page validity and reverse mapping, erase counts for wear leveling.
//
// One open block per plane; writes routed to a plane append into its open
// block. Wear leveling is allocation-time: when a plane needs a fresh open
// block, the least-erased free block is chosen.
//
// State grows with the blocks a run opens, not with capacity. Each plane
// hands out never-used blocks from an ascending cursor: every block below
// the cursor has a record, validity bits and an owner run, and every
// block at or above it is implicitly Free with no erases and no record.
// The records live in a few pooled, plane-major arrays with one per-plane
// capacity that doubles when a plane outgrows it, so a copy moves only
// opened blocks and every per-page query is O(1) arithmetic.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ftl/recovery.hpp"
#include "sim/geometry.hpp"
#include "sim/request.hpp"
#include "snapshot/archive.hpp"

namespace ssdk::ftl {

class MappingTable;
class OobStore;

/// Packed owner of a physical page: tenant in the top 24 bits, LPN in the
/// low 40 (a tenant logical space of up to ~10^12 pages).
struct PageOwner {
  sim::TenantId tenant = 0;
  std::uint64_t lpn = 0;
};

/// kRetired: a grown bad block, permanently out of rotation. Its surviving
/// valid pages stay readable until rescue migration moves them; the block
/// is never erased, never re-opened, and never returned to the free list.
enum class BlockState : std::uint8_t { kFree, kOpen, kFull, kRetired };

struct WearStats {
  std::uint64_t min_erases = 0;
  std::uint64_t max_erases = 0;
  double mean_erases = 0.0;
  std::uint64_t total_erases = 0;
};

/// A plane's cursor advances when it opens a never-used block, and past
/// any block that is retired or records a failure before it was ever
/// opened (the blocks it skips become explicit Free records). Pool slots
/// at or above a plane's cursor stay zeroed, so a page there reads as
/// invalid without a lookup of the cursor. Copies are memberwise: a fork
/// moves the pooled arrays, which hold `planes x capacity` blocks, where
/// the capacity is at most twice the largest cursor.
class BlockManager {
 public:
  explicit BlockManager(const sim::Geometry& geometry);

  const sim::Geometry& geometry() const { return geom_; }

  /// Append one page in the plane's open block; opens a new block when the
  /// current one fills. Returns std::nullopt when the plane has no free
  /// page left (caller must GC or redirect). Inline: the steady-state
  /// path (an open block with room) runs once per page write and is just
  /// a bump of the block's write pointer.
  std::optional<sim::Ppn> allocate_page(std::uint64_t plane_id) {
    assert(plane_id < planes_.size());
    auto& plane = planes_[plane_id];
    if (plane.open_block < 0 && !open_new_block(plane_id)) {
      return std::nullopt;
    }
    const auto block = static_cast<std::uint32_t>(plane.open_block);
    BlockInfo& info = blocks_[slot(plane_id, block)];
    assert(info.write_ptr < geom_.pages_per_block);
    const sim::Ppn ppn =
        (plane_id * geom_.blocks_per_plane + block) * geom_.pages_per_block +
        info.write_ptr;
    if (++info.write_ptr == geom_.pages_per_block) {
      info.state = BlockState::kFull;
      plane.open_block = -1;
    }
    return ppn;
  }

  /// Record ownership of a just-written page and mark it valid.
  void mark_valid(sim::Ppn ppn, sim::TenantId tenant, std::uint64_t lpn) {
    const PagePos pos = locate(ppn);
    assert(pos.in_pool && !page_valid(pos));
    valid_bits_[word_index(pos)] |= bit_of(pos);
    owners_[owner_index(pos)] = pack_owner(tenant, lpn);
    ++blocks_[pos.slot].valid;
  }

  /// Invalidate a page (its LPN was overwritten or trimmed).
  void invalidate(sim::Ppn ppn) {
    const PagePos pos = locate(ppn);
    if (!pos.in_pool) return;
    std::uint64_t& word = valid_bits_[word_index(pos)];
    if ((word & bit_of(pos)) == 0) return;
    word &= ~bit_of(pos);
    auto& info = blocks_[pos.slot];
    assert(info.valid > 0);
    --info.valid;
  }

  bool is_valid(sim::Ppn ppn) const {
    const PagePos pos = locate(ppn);
    return pos.in_pool && page_valid(pos);
  }

  PageOwner owner(sim::Ppn ppn) const {
    const PagePos pos = locate(ppn);
    if (!pos.in_pool || !page_valid(pos)) {
      throw std::logic_error("block_manager: page has no owner");
    }
    const std::uint64_t packed = owners_[owner_index(pos)];
    return PageOwner{static_cast<sim::TenantId>(packed >> 40),
                     packed & kLpnMask};
  }

  std::uint32_t free_blocks(std::uint64_t plane_id) const;
  std::uint64_t free_pages(std::uint64_t plane_id) const;

  /// GC victim: the Full block in the plane with the fewest valid pages;
  /// std::nullopt when no Full block exists or the best victim has no
  /// reclaimable (invalid) page.
  std::optional<std::uint32_t> select_victim(std::uint64_t plane_id) const;

  /// Valid PPNs remaining in a block (the pages GC must migrate): clears
  /// `out` and fills it, reusing its capacity (the device's GC loop calls
  /// this once per round with a scratch vector).
  void valid_pages_into(std::uint64_t plane_id, std::uint32_t block,
                        std::vector<sim::Ppn>& out) const;

  /// Erase a Full block with no valid pages: resets it to Free.
  /// Precondition (checked): block is Full and has zero valid pages.
  void erase_block(std::uint64_t plane_id, std::uint32_t block);

  std::uint32_t valid_count(std::uint64_t plane_id,
                            std::uint32_t block) const;
  std::uint64_t erase_count(std::uint64_t plane_id,
                            std::uint32_t block) const;
  BlockState block_state(std::uint64_t plane_id, std::uint32_t block) const;

  WearStats wear_stats() const;

  /// max - min erase count across one plane's blocks.
  std::uint64_t plane_wear_gap(std::uint64_t plane_id) const;

  /// The Full block with the lowest erase count in the plane — the static
  /// wear-leveling candidate (its cold data pins a low-wear block out of
  /// rotation). std::nullopt when no Full block exists.
  std::optional<std::uint32_t> coldest_full_block(
      std::uint64_t plane_id) const;

  /// Total valid pages across the device (conservation checks in tests).
  std::uint64_t total_valid_pages() const;

  /// Audit the block-level bookkeeping: per-block write-pointer/valid/state
  /// consistency, valid counters vs. actual page owners, plane free-list
  /// integrity (membership, uniqueness, state agreement), open-block
  /// registration, cursor bounds and zeroed slots above each cursor.
  /// Throws util::InvariantViolation on the first breach.
  void check_invariants() const;

  // --- bad-block management (fault model) --------------------------------

  /// Count one program failure in the block; returns the new total.
  std::uint32_t record_program_fail(std::uint64_t plane_id,
                                    std::uint32_t block);
  /// Count one erase failure in the block; returns the new total.
  std::uint32_t record_erase_fail(std::uint64_t plane_id,
                                  std::uint32_t block);

  /// Permanently take a block out of rotation. Legal from any non-retired
  /// state: a Free block leaves the free list, an Open block stops being
  /// the plane's append point, a Full block simply changes state. Valid
  /// pages are untouched (the caller rescues them via the GC migration
  /// path). Throws std::logic_error if already retired.
  void retire_block(std::uint64_t plane_id, std::uint32_t block);

  /// Retired blocks across the device: a count over the records.
  std::uint64_t retired_blocks() const;

  // --- power-loss recovery (driven by Ftl::recover_after_power_loss) ------

  /// Rebuild every piece of volatile block bookkeeping from the OOB scan:
  /// re-derive per-block state (unknown blocks re-erased, any block with a
  /// programmed page sealed Full, untouched blocks Free), reset per-page
  /// owners/valid counts to the scan's winning versions, rebuild the free
  /// lists, and install the winners into `map`. Only the bad-block table
  /// (retired flags) and erase counters are treated as durable. Defined in
  /// recovery.cpp.
  void recover_from_oob(OobStore& oob, MappingTable& map,
                        RecoveryReport& report);

  /// Serialize everything but the geometry (fixed at construction; the
  /// snapshot layer round-trips it as part of the device options) and
  /// what follows from the rest: the plane cursors and each opened
  /// block's record and validity words, with owners for its valid pages
  /// only. The loader checks every field against the geometry before use
  /// and throws snapshot::SnapshotError with the byte offset of the first
  /// bad one; it derives the valid counts, open blocks and free lists.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  static constexpr std::uint64_t kLpnMask = (1ULL << 40) - 1;

  static std::uint64_t pack_owner(sim::TenantId tenant, std::uint64_t lpn) {
    assert(lpn <= kLpnMask);
    return (static_cast<std::uint64_t>(tenant) << 40) | lpn;
  }

  struct BlockInfo {
    std::uint32_t write_ptr = 0;    ///< next page to program
    // ssdk-snap: skip(valid): the popcount of the block's validity words, which the loader takes
    std::uint32_t valid = 0;        ///< valid page count
    std::uint64_t erases = 0;
    BlockState state = BlockState::kFree;
    std::uint8_t program_fails = 0;  ///< fault model: failures observed
    std::uint8_t erase_fails = 0;
  };
  struct PlaneInfo {
    std::uint32_t cursor = 0;      ///< blocks below it have records
    // ssdk-snap: skip(free_count): the plane's Free records, counted by derive_plane on load
    std::uint32_t free_count = 0;  ///< length of the explicit free list
    // ssdk-snap: skip(open_block): the plane's Open record, found by derive_plane on load
    std::int64_t open_block = -1;  ///< -1 = none
  };

  /// Where a page's state lives: the pool slot of its block and its index
  /// within the block. `in_pool` is false for blocks past the pool's
  /// per-plane capacity, which have no slot and hold no valid page.
  struct PagePos {
    std::uint64_t slot;
    std::uint32_t page;
    bool in_pool;
  };

  PagePos locate(sim::Ppn ppn) const {
    assert(ppn < geom_.total_pages());
    const std::uint32_t ppb = geom_.pages_per_block;
    const std::uint32_t bpp = geom_.blocks_per_plane;
    // Every stock geometry has power-of-two blocks and pages; this runs
    // on every validity query, where two hardware divides are measurable.
    const std::uint64_t block =
        pow2_ ? ppn >> std::countr_zero(ppb) : ppn / ppb;
    const std::uint64_t plane =
        pow2_ ? block >> std::countr_zero(bpp) : block / bpp;
    const std::uint64_t in_plane = block - plane * bpp;
    return PagePos{plane * cap_ + in_plane,
                   static_cast<std::uint32_t>(ppn - block * ppb),
                   in_plane < cap_};
  }

  std::uint64_t slot(std::uint64_t plane_id, std::uint32_t block) const {
    return plane_id * cap_ + block;
  }
  std::uint32_t words_per_block() const {
    return (geom_.pages_per_block + 63) / 64;
  }
  std::uint64_t word_index(const PagePos& pos) const {
    return pos.slot * words_per_block() + (pos.page >> 6);
  }
  static std::uint64_t bit_of(const PagePos& pos) {
    return std::uint64_t{1} << (pos.page & 63);
  }
  std::uint64_t owner_base(std::uint64_t slot) const {
    return slot * geom_.pages_per_block;
  }
  std::uint64_t owner_index(const PagePos& pos) const {
    return owner_base(pos.slot) + pos.page;
  }
  bool page_valid(const PagePos& pos) const {
    return (valid_bits_[word_index(pos)] & bit_of(pos)) != 0;
  }

  /// Install an owner during recovery (no valid-count bookkeeping — the
  /// caller rebuilds counters itself).
  void set_owner_raw(sim::Ppn ppn, std::uint64_t packed) {
    const PagePos pos = locate(ppn);
    assert(pos.in_pool);
    valid_bits_[word_index(pos)] |= bit_of(pos);
    owners_[owner_index(pos)] = packed;
  }

  /// Pop the least-erased free block of a plane and open it.
  bool open_new_block(std::uint64_t plane_id);

  /// Derive the plane's free list (its Free records, in ascending order)
  /// and open block (its Open record, or none) from its records. Snapshot
  /// loads and the recovery scan call it.
  void derive_plane(std::uint64_t plane_id);

  /// Give every block of the plane below `end` a record: blocks between
  /// the cursor and `end` become Free records on the explicit free list.
  void extend_cursor(std::uint64_t plane_id, std::uint32_t end);

  /// The block's record, created first if the block was never opened.
  BlockInfo& record(std::uint64_t plane_id, std::uint32_t block);

  /// Grow the per-plane pool capacity to hold at least `blocks` records,
  /// doubling and capped at blocks_per_plane; copies each plane's records.
  void reserve_blocks(std::uint32_t blocks);

  // ssdk-snap: skip(geom_): fixed at construction; a loaded device is built from the OPTS geometry before load_state runs
  sim::Geometry geom_;
  // ssdk-snap: skip(pow2_): derived from geometry at construction, never mutated
  bool pow2_ = false;
  // ssdk-snap: skip(cap_): pool layout, not state; the loader sizes the pool to the loaded cursors
  std::uint32_t cap_ = 0;  ///< records per plane the pool holds

  std::vector<PlaneInfo> planes_;  // indexed by plane id
  // The pool, plane-major with cap_ slots per plane: slot(p, b) holds
  // block b of plane p for b below the plane's cursor.
  std::vector<BlockInfo> blocks_;
  // Explicit free list per plane, free_count long.
  // ssdk-snap: skip(free_ids_): the plane's Free records, listed by derive_plane on load
  std::vector<std::uint32_t> free_ids_;
  std::vector<std::uint64_t> valid_bits_;  // words_per_block() per slot
  // Packed owner (tenant<<40 | lpn) per page, pages_per_block per slot;
  // meaningful only while the page's validity bit is set.
  std::vector<std::uint64_t> owners_;
};

}  // namespace ssdk::ftl
