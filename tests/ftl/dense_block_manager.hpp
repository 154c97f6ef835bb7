// Reference block manager: the dense BlockManager that src/ftl used
// before block state became per-opened-block, preserved verbatim (minus
// OOB recovery and snapshot support) as the oracle for the randomized
// differential test in tests/ftl/block_manager_diff_test.cpp. It keeps a
// record, validity bits and an owner slot for every physical block and
// page from construction, so any sparse layout must answer every query
// exactly as it does.
//
// Not used by the simulator; do not add features here. If a placement,
// victim or wear-leveling rule changes, change it in block_manager.cpp
// first and mirror it here.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftl/block_manager.hpp"
#include "sim/geometry.hpp"
#include "sim/request.hpp"
#include "util/check.hpp"

namespace ssdk::ftl {

class DenseBlockManager {
 public:
  explicit DenseBlockManager(const sim::Geometry& geometry);

  // The owner array is deliberately left uninitialized where the validity
  // bitmap says "invalid", so copies must be bitmap-guided: a full-array
  // memcpy would drag ~8 MB of never-written memory through the cache per
  // fork on the paper geometry, and device construction would pay the
  // same in memset. These copies are what make 42-way fork sweeps cheap.
  DenseBlockManager(const DenseBlockManager& other);
  DenseBlockManager& operator=(const DenseBlockManager& other);
  DenseBlockManager(DenseBlockManager&&) = default;
  DenseBlockManager& operator=(DenseBlockManager&&) = default;

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

    auto block = static_cast<std::uint32_t>(plane.open_block);
    auto* info = &blocks_[block_index(plane_id, block)];
    if (info->write_ptr >= geom_.pages_per_block) {
      info->state = BlockState::kFull;
      plane.open_block = -1;
      if (!open_new_block(plane_id)) return std::nullopt;
      block = static_cast<std::uint32_t>(plane.open_block);
      info = &blocks_[block_index(plane_id, block)];
    }

    const sim::Ppn ppn =
        (block_index(plane_id, block)) * geom_.pages_per_block +
        info->write_ptr;
    ++info->write_ptr;
    if (info->write_ptr == geom_.pages_per_block) {
      info->state = BlockState::kFull;
      plane.open_block = -1;
    }
    return ppn;
  }

  /// Record ownership of a just-written page and mark it valid.
  void mark_valid(sim::Ppn ppn, sim::TenantId tenant, std::uint64_t lpn) {
    assert(ppn < total_pages_);
    assert(!page_valid(ppn));
    valid_bits_[ppn >> 6] |= std::uint64_t{1} << (ppn & 63);
    owner_[ppn] = pack_owner(tenant, lpn);
    ++blocks_[ppn / geom_.pages_per_block].valid;
  }

  /// Invalidate a page (its LPN was overwritten or trimmed).
  void invalidate(sim::Ppn ppn) {
    assert(ppn < total_pages_);
    const std::uint64_t mask = std::uint64_t{1} << (ppn & 63);
    std::uint64_t& word = valid_bits_[ppn >> 6];
    if ((word & mask) == 0) return;
    word &= ~mask;
    auto& info = blocks_[ppn / geom_.pages_per_block];
    assert(info.valid > 0);
    --info.valid;
  }

  bool is_valid(sim::Ppn ppn) const {
    assert(ppn < total_pages_);
    return page_valid(ppn);
  }

  PageOwner owner(sim::Ppn ppn) const {
    assert(ppn < total_pages_);
    if (!page_valid(ppn)) {
      throw std::logic_error("block_manager: page has no owner");
    }
    const std::uint64_t packed = owner_[ppn];
    return PageOwner{static_cast<sim::TenantId>(packed >> 40),
                     packed & kLpnMask};
  }

  std::uint32_t free_blocks(std::uint64_t plane_id) const;
  std::uint64_t free_pages(std::uint64_t plane_id) const;

  /// GC victim: the Full block in the plane with the fewest valid pages;
  /// std::nullopt when no Full block exists or the best victim has no
  /// reclaimable (invalid) page.
  std::optional<std::uint32_t> select_victim(std::uint64_t plane_id) const;

  /// Valid PPNs remaining in a block (the pages GC must migrate).
  std::vector<sim::Ppn> valid_pages(std::uint64_t plane_id,
                                    std::uint32_t block) const;

  /// Allocation-free variant: clears `out` and fills it with the block's
  /// valid PPNs, reusing its capacity (the device's GC loop calls this
  /// once per round with a scratch vector).
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
  /// registration, and the retired-block counter. Throws
  /// util::InvariantViolation on the first breach.
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

  /// Retired blocks across the device.
  std::uint64_t retired_blocks() const { return retired_; }

 private:
  static constexpr std::uint64_t kLpnMask = (1ULL << 40) - 1;
  /// Sentinel doubling as the validity flag: a page is valid exactly when
  /// it has an owner, so one array serves both queries with one cache
  /// line touched instead of two.
  static constexpr std::uint64_t kNoOwner = ~std::uint64_t{0};

  static std::uint64_t pack_owner(sim::TenantId tenant, std::uint64_t lpn) {
    assert(lpn <= kLpnMask);
    return (static_cast<std::uint64_t>(tenant) << 40) | lpn;
  }

  std::uint64_t block_index(std::uint64_t plane_id,
                            std::uint32_t block) const {
    return plane_id * geom_.blocks_per_plane + block;
  }

  /// Pop the least-erased free block of a plane and open it.
  bool open_new_block(std::uint64_t plane_id);

  sim::Geometry geom_;

  struct BlockInfo {
    std::uint32_t write_ptr = 0;    ///< next page to program
    std::uint32_t valid = 0;        ///< valid page count
    std::uint64_t erases = 0;
    BlockState state = BlockState::kFree;
    std::uint8_t program_fails = 0;  ///< fault model: failures observed
    std::uint8_t erase_fails = 0;
  };
  struct PlaneInfo {
    std::vector<std::uint32_t> free_list;  ///< free block ids
    std::int64_t open_block = -1;          ///< -1 = none
  };

  bool page_valid(sim::Ppn ppn) const {
    return (valid_bits_[ppn >> 6] >> (ppn & 63)) & 1;
  }

  /// Install an owner during recovery/snapshot load (no valid-count
  /// bookkeeping — the caller rebuilds counters itself).
  void set_owner_raw(sim::Ppn ppn, std::uint64_t packed) {
    valid_bits_[ppn >> 6] |= std::uint64_t{1} << (ppn & 63);
    owner_[ppn] = packed;
  }

  /// Clear validity for [first, first + count) (block erase, recovery).
  void clear_valid_range(sim::Ppn first, std::uint64_t count);

  /// Bitmap-guided copy of another manager's owner state into this one's
  /// (already-allocated) arrays.
  void copy_owners_from(const DenseBlockManager& other);

  std::vector<BlockInfo> blocks_;     // indexed by global block id
  std::vector<PlaneInfo> planes_;     // indexed by plane id
  std::uint64_t retired_ = 0;         // device-wide retired-block count
  std::uint64_t total_pages_ = 0;
  // Page validity, one bit per PPN. A page's packed owner
  // (tenant<<40 | lpn) lives in owner_[ppn] *only while its bit is set*;
  // owner_ is allocated uninitialized and entries for invalid pages are
  // never read or copied (see the copy-constructor note above).
  std::vector<std::uint64_t> valid_bits_;
  std::unique_ptr<std::uint64_t[]> owner_;
};


inline DenseBlockManager::DenseBlockManager(const sim::Geometry& geometry)
    : geom_(geometry) {
  geom_.validate();
  blocks_.resize(geom_.total_blocks());
  planes_.resize(geom_.total_planes());
  total_pages_ = geom_.total_pages();
  valid_bits_.assign((total_pages_ + 63) / 64, 0);
  // Deliberately uninitialized — 8 MB on the paper geometry, of which a
  // typical run ever touches a fraction. The bitmap gates every read.
  owner_ = std::make_unique_for_overwrite<std::uint64_t[]>(total_pages_);
  for (std::uint64_t p = 0; p < planes_.size(); ++p) {
    auto& plane = planes_[p];
    plane.free_list.reserve(geom_.blocks_per_plane);
    for (std::uint32_t b = 0; b < geom_.blocks_per_plane; ++b) {
      plane.free_list.push_back(b);
    }
  }
}

inline DenseBlockManager::DenseBlockManager(const DenseBlockManager& other)
    : geom_(other.geom_),
      blocks_(other.blocks_),
      planes_(other.planes_),
      retired_(other.retired_),
      total_pages_(other.total_pages_),
      valid_bits_(other.valid_bits_),
      owner_(std::make_unique_for_overwrite<std::uint64_t[]>(
          other.total_pages_)) {
  copy_owners_from(other);
}

inline DenseBlockManager& DenseBlockManager::operator=(
    const DenseBlockManager& other) {
  if (this == &other) return *this;
  geom_ = other.geom_;
  blocks_ = other.blocks_;
  planes_ = other.planes_;
  retired_ = other.retired_;
  if (total_pages_ != other.total_pages_) {
    owner_ =
        std::make_unique_for_overwrite<std::uint64_t[]>(other.total_pages_);
    total_pages_ = other.total_pages_;
  }
  valid_bits_ = other.valid_bits_;
  copy_owners_from(other);
  return *this;
}

inline void DenseBlockManager::copy_owners_from(
    const DenseBlockManager& other) {
  for (std::size_t w = 0; w < valid_bits_.size(); ++w) {
    std::uint64_t word = valid_bits_[w];
    while (word != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(word));
      const std::uint64_t p = (static_cast<std::uint64_t>(w) << 6) | bit;
      owner_[p] = other.owner_[p];
      word &= word - 1;
    }
  }
}

inline void DenseBlockManager::clear_valid_range(sim::Ppn first,
                                                 std::uint64_t count) {
  sim::Ppn p = first;
  const sim::Ppn end = first + count;
  while (p < end && (p & 63) != 0) {
    valid_bits_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
    ++p;
  }
  for (; p + 64 <= end; p += 64) valid_bits_[p >> 6] = 0;
  for (; p < end; ++p) {
    valid_bits_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  }
}

inline bool DenseBlockManager::open_new_block(std::uint64_t plane_id) {
  auto& plane = planes_[plane_id];
  if (plane.free_list.empty()) return false;
  // Wear leveling: the least-erased free block; ties break toward the
  // lowest block id so allocation order is deterministic.
  auto best = plane.free_list.begin();
  std::uint64_t best_erases = blocks_[block_index(plane_id, *best)].erases;
  for (auto it = best + 1; it != plane.free_list.end(); ++it) {
    const std::uint64_t erases = blocks_[block_index(plane_id, *it)].erases;
    if (erases < best_erases || (erases == best_erases && *it < *best)) {
      best = it;
      best_erases = erases;
    }
  }
  const std::uint32_t chosen = *best;
  // Swap-remove keeps the pop O(1); order within the free list is not
  // meaningful.
  *best = plane.free_list.back();
  plane.free_list.pop_back();

  auto& info = blocks_[block_index(plane_id, chosen)];
  assert(info.state == BlockState::kFree);
  info.state = BlockState::kOpen;
  info.write_ptr = 0;
  info.valid = 0;
  plane.open_block = chosen;
  return true;
}

inline std::uint32_t DenseBlockManager::free_blocks(
    std::uint64_t plane_id) const {
  assert(plane_id < planes_.size());
  return static_cast<std::uint32_t>(planes_[plane_id].free_list.size());
}

inline std::uint64_t DenseBlockManager::free_pages(
    std::uint64_t plane_id) const {
  assert(plane_id < planes_.size());
  const auto& plane = planes_[plane_id];
  std::uint64_t pages = static_cast<std::uint64_t>(plane.free_list.size()) *
                        geom_.pages_per_block;
  if (plane.open_block >= 0) {
    const auto& info = blocks_[block_index(
        plane_id, static_cast<std::uint32_t>(plane.open_block))];
    pages += geom_.pages_per_block - info.write_ptr;
  }
  return pages;
}

inline std::optional<std::uint32_t> DenseBlockManager::select_victim(
    std::uint64_t plane_id) const {
  assert(plane_id < planes_.size());
  // Greedy victim: fewest valid pages (lowest migration cost). Ties break
  // toward the least-erased block — cleaning cost is identical, so take
  // the wear-leveling win; this also guarantees every reclaimable block is
  // eventually cycled instead of a fixed subset.
  std::optional<std::uint32_t> best;
  std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t best_erases = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t b = 0; b < geom_.blocks_per_plane; ++b) {
    const auto& info = blocks_[block_index(plane_id, b)];
    if (info.state != BlockState::kFull) continue;
    if (info.valid < best_valid ||
        (info.valid == best_valid && info.erases < best_erases)) {
      best_valid = info.valid;
      best_erases = info.erases;
      best = b;
    }
  }
  // A victim with every page still valid frees nothing; reject it.
  if (best && best_valid >= geom_.pages_per_block) return std::nullopt;
  return best;
}

inline std::vector<sim::Ppn> DenseBlockManager::valid_pages(
    std::uint64_t plane_id, std::uint32_t block) const {
  std::vector<sim::Ppn> out;
  valid_pages_into(plane_id, block, out);
  return out;
}

inline void DenseBlockManager::valid_pages_into(
    std::uint64_t plane_id, std::uint32_t block,
    std::vector<sim::Ppn>& out) const {
  out.clear();
  const std::uint64_t base =
      block_index(plane_id, block) * geom_.pages_per_block;
  for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
    if (page_valid(base + p)) out.push_back(base + p);
  }
}

inline std::uint32_t DenseBlockManager::record_program_fail(
    std::uint64_t plane_id, std::uint32_t block) {
  auto& info = blocks_[block_index(plane_id, block)];
  if (info.program_fails < 0xFF) ++info.program_fails;
  return info.program_fails;
}

inline std::uint32_t DenseBlockManager::record_erase_fail(
    std::uint64_t plane_id, std::uint32_t block) {
  auto& info = blocks_[block_index(plane_id, block)];
  if (info.erase_fails < 0xFF) ++info.erase_fails;
  return info.erase_fails;
}

inline void DenseBlockManager::retire_block(std::uint64_t plane_id,
                                            std::uint32_t block) {
  auto& info = blocks_[block_index(plane_id, block)];
  auto& plane = planes_[plane_id];
  switch (info.state) {
    case BlockState::kRetired:
      throw std::logic_error("block_manager: block already retired");
    case BlockState::kFree: {
      auto it = std::find(plane.free_list.begin(), plane.free_list.end(),
                          block);
      assert(it != plane.free_list.end());
      *it = plane.free_list.back();
      plane.free_list.pop_back();
      break;
    }
    case BlockState::kOpen:
      assert(plane.open_block == static_cast<std::int64_t>(block));
      plane.open_block = -1;
      break;
    case BlockState::kFull:
      break;
  }
  info.state = BlockState::kRetired;
  ++retired_;
}

inline void DenseBlockManager::erase_block(std::uint64_t plane_id,
                                           std::uint32_t block) {
  auto& info = blocks_[block_index(plane_id, block)];
  if (info.state != BlockState::kFull || info.valid != 0) {
    throw std::logic_error(
        "block_manager: erase requires a Full block with no valid pages");
  }
  const std::uint64_t base =
      block_index(plane_id, block) * geom_.pages_per_block;
  clear_valid_range(base, geom_.pages_per_block);
  info.state = BlockState::kFree;
  info.write_ptr = 0;
  info.valid = 0;
  ++info.erases;
  planes_[plane_id].free_list.push_back(block);
}

inline std::uint32_t DenseBlockManager::valid_count(
    std::uint64_t plane_id, std::uint32_t block) const {
  return blocks_[block_index(plane_id, block)].valid;
}

inline std::uint64_t DenseBlockManager::erase_count(
    std::uint64_t plane_id, std::uint32_t block) const {
  return blocks_[block_index(plane_id, block)].erases;
}

inline BlockState DenseBlockManager::block_state(
    std::uint64_t plane_id, std::uint32_t block) const {
  return blocks_[block_index(plane_id, block)].state;
}

inline WearStats DenseBlockManager::wear_stats() const {
  WearStats stats;
  if (blocks_.empty()) return stats;
  stats.min_erases = std::numeric_limits<std::uint64_t>::max();
  double sum = 0.0;
  for (const auto& info : blocks_) {
    stats.min_erases = std::min(stats.min_erases, info.erases);
    stats.max_erases = std::max(stats.max_erases, info.erases);
    stats.total_erases += info.erases;
    sum += static_cast<double>(info.erases);
  }
  stats.mean_erases = sum / static_cast<double>(blocks_.size());
  return stats;
}

inline std::uint64_t DenseBlockManager::plane_wear_gap(
    std::uint64_t plane_id) const {
  // Retired blocks are permanently out of rotation — their (frozen) erase
  // counts would otherwise pin the gap and trigger pointless leveling.
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max(), hi = 0;
  for (std::uint32_t b = 0; b < geom_.blocks_per_plane; ++b) {
    const auto& info = blocks_[block_index(plane_id, b)];
    if (info.state == BlockState::kRetired) continue;
    lo = std::min(lo, info.erases);
    hi = std::max(hi, info.erases);
  }
  return hi >= lo ? hi - lo : 0;
}

inline std::optional<std::uint32_t> DenseBlockManager::coldest_full_block(
    std::uint64_t plane_id) const {
  std::optional<std::uint32_t> best;
  std::uint64_t best_erases = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t b = 0; b < geom_.blocks_per_plane; ++b) {
    const auto& info = blocks_[block_index(plane_id, b)];
    if (info.state != BlockState::kFull) continue;
    if (info.erases < best_erases) {
      best_erases = info.erases;
      best = b;
    }
  }
  return best;
}

inline std::uint64_t DenseBlockManager::total_valid_pages() const {
  std::uint64_t total = 0;
  for (const auto& info : blocks_) total += info.valid;
  return total;
}

inline void DenseBlockManager::check_invariants() const {
  auto block_label = [](std::uint64_t plane, std::uint32_t block) {
    return "plane " + std::to_string(plane) + " block " +
           std::to_string(block);
  };

  std::uint64_t retired_seen = 0;
  for (std::uint64_t plane = 0; plane < planes_.size(); ++plane) {
    const PlaneInfo& pinfo = planes_[plane];

    // Free list: every entry names a distinct in-range block whose state
    // is kFree, and every kFree block of the plane is listed.
    std::vector<bool> listed(geom_.blocks_per_plane, false);
    for (const std::uint32_t b : pinfo.free_list) {
      SSDK_CHECK_MSG(b < geom_.blocks_per_plane,
                     "free list of plane " + std::to_string(plane) +
                         " holds out-of-range block " + std::to_string(b));
      SSDK_CHECK_MSG(!listed[b], "free list of plane " +
                                     std::to_string(plane) +
                                     " holds duplicate block " +
                                     std::to_string(b));
      listed[b] = true;
      SSDK_CHECK_MSG(
          blocks_[block_index(plane, b)].state == BlockState::kFree,
          block_label(plane, b) + " is on the free list but not Free");
    }

    // Open block: registered, in range, and in state kOpen; conversely no
    // unregistered block of the plane may be kOpen.
    if (pinfo.open_block >= 0) {
      SSDK_CHECK_MSG(
          pinfo.open_block < geom_.blocks_per_plane,
          "plane " + std::to_string(plane) + " open block out of range");
      SSDK_CHECK_MSG(
          blocks_[block_index(plane, static_cast<std::uint32_t>(
                                         pinfo.open_block))]
                  .state == BlockState::kOpen,
          "plane " + std::to_string(plane) +
              " registers an append point that is not Open");
    }

    for (std::uint32_t b = 0; b < geom_.blocks_per_plane; ++b) {
      const BlockInfo& info = blocks_[block_index(plane, b)];
      SSDK_CHECK_MSG(info.write_ptr <= geom_.pages_per_block,
                     block_label(plane, b) + " write pointer overruns");
      SSDK_CHECK_MSG(info.valid <= info.write_ptr,
                     block_label(plane, b) +
                         " counts more valid pages than were written");

      // Valid counter vs. the per-page owner table (count conservation).
      const std::uint64_t base =
          block_index(plane, b) * geom_.pages_per_block;
      std::uint32_t owned = 0;
      for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
        if (page_valid(base + p)) ++owned;
      }
      SSDK_CHECK_MSG(owned == info.valid,
                     block_label(plane, b) + " valid counter " +
                         std::to_string(info.valid) + " != owned pages " +
                         std::to_string(owned));

      switch (info.state) {
        case BlockState::kFree:
          SSDK_CHECK_MSG(info.write_ptr == 0 && info.valid == 0,
                         block_label(plane, b) + " is Free but not blank");
          SSDK_CHECK_MSG(listed[b], block_label(plane, b) +
                                        " is Free but missing from the "
                                        "free list");
          break;
        case BlockState::kOpen:
          SSDK_CHECK_MSG(pinfo.open_block ==
                             static_cast<std::int64_t>(b),
                         block_label(plane, b) +
                             " is Open but not the plane's append point");
          SSDK_CHECK_MSG(info.write_ptr < geom_.pages_per_block,
                         block_label(plane, b) + " is Open but full");
          break;
        case BlockState::kFull:
          SSDK_CHECK_MSG(info.write_ptr == geom_.pages_per_block,
                         block_label(plane, b) +
                             " is Full below its write capacity");
          break;
        case BlockState::kRetired:
          ++retired_seen;
          break;
      }
      if (info.state != BlockState::kFree) {
        SSDK_CHECK_MSG(!listed[b], block_label(plane, b) +
                                       " is on the free list but not Free");
      }
    }
  }
  SSDK_CHECK_MSG(retired_seen == retired_,
                 "retired-block counter " + std::to_string(retired_) +
                     " != blocks in state kRetired " +
                     std::to_string(retired_seen));
}

}  // namespace ssdk::ftl
