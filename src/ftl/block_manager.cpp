#include "ftl/block_manager.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace ssdk::ftl {

BlockManager::BlockManager(const sim::Geometry& geometry) : geom_(geometry) {
  geom_.validate();
  pow2_ = std::has_single_bit(geom_.pages_per_block) &&
          std::has_single_bit(geom_.blocks_per_plane);
  planes_.resize(geom_.total_planes());
}

void BlockManager::reserve_blocks(std::uint32_t blocks) {
  if (blocks <= cap_) return;
  const std::uint32_t cap =
      std::min(geom_.blocks_per_plane, std::max(blocks, cap_ * 2));
  const std::uint32_t wpb = words_per_block();
  const std::uint32_t ppb = geom_.pages_per_block;
  const std::uint64_t slots = planes_.size() * cap;
  std::vector<BlockInfo> block_pool(slots);
  std::vector<std::uint32_t> free_pool(slots);
  std::vector<std::uint64_t> word_pool(slots * wpb);
  std::vector<std::uint64_t> owner_pool(slots * ppb);
  for (std::uint64_t p = 0; p < planes_.size(); ++p) {
    const std::uint64_t from = p * cap_;
    const std::uint64_t to = p * cap;
    const std::uint32_t used = planes_[p].cursor;
    std::copy_n(blocks_.begin() + from, used, block_pool.begin() + to);
    std::copy_n(free_ids_.begin() + from, planes_[p].free_count,
                free_pool.begin() + to);
    std::copy_n(valid_bits_.begin() + from * wpb, used * wpb,
                word_pool.begin() + to * wpb);
    std::copy_n(owners_.begin() + from * ppb, std::uint64_t{used} * ppb,
                owner_pool.begin() + to * ppb);
  }
  blocks_ = std::move(block_pool);
  free_ids_ = std::move(free_pool);
  valid_bits_ = std::move(word_pool);
  owners_ = std::move(owner_pool);
  cap_ = cap;
}

void BlockManager::extend_cursor(std::uint64_t plane_id, std::uint32_t end) {
  assert(end <= geom_.blocks_per_plane);
  PlaneInfo& plane = planes_[plane_id];
  if (end <= plane.cursor) return;
  reserve_blocks(end);
  const std::uint64_t base = slot(plane_id, 0);
  for (std::uint32_t b = plane.cursor; b < end; ++b) {
    free_ids_[base + plane.free_count++] = b;
  }
  plane.cursor = end;
}

BlockManager::BlockInfo& BlockManager::record(std::uint64_t plane_id,
                                              std::uint32_t block) {
  assert(block < geom_.blocks_per_plane);
  extend_cursor(plane_id, block + 1);
  return blocks_[slot(plane_id, block)];
}

bool BlockManager::open_new_block(std::uint64_t plane_id) {
  auto& plane = planes_[plane_id];
  // Wear leveling: the least-erased free block; ties break toward the
  // lowest block id so allocation order is deterministic. Listed blocks
  // are all below the cursor, so the never-opened block at the cursor (no
  // erases) wins only when no listed block is unerased. (erases, id) is a
  // total order, so the pick does not depend on the list's order.
  std::uint64_t base = slot(plane_id, 0);
  std::uint32_t best = plane.free_count;  // position in the list; none yet
  std::uint64_t best_erases = 0;
  for (std::uint32_t i = 0; i < plane.free_count; ++i) {
    const std::uint32_t id = free_ids_[base + i];
    const std::uint64_t erases = blocks_[base + id].erases;
    if (best == plane.free_count || erases < best_erases ||
        (erases == best_erases && id < free_ids_[base + best])) {
      best = i;
      best_erases = erases;
    }
  }
  if (plane.cursor < geom_.blocks_per_plane &&
      (best == plane.free_count || best_erases > 0)) {
    extend_cursor(plane_id, plane.cursor + 1);
    base = slot(plane_id, 0);
    best = plane.free_count - 1;
  }
  if (best == plane.free_count) return false;
  const std::uint32_t chosen = free_ids_[base + best];
  // Swap-remove keeps the pop O(1).
  free_ids_[base + best] = free_ids_[base + --plane.free_count];

  auto& info = blocks_[base + chosen];
  assert(info.state == BlockState::kFree);
  info.state = BlockState::kOpen;
  info.write_ptr = 0;
  info.valid = 0;
  plane.open_block = chosen;
  return true;
}

std::uint32_t BlockManager::free_blocks(std::uint64_t plane_id) const {
  assert(plane_id < planes_.size());
  const PlaneInfo& plane = planes_[plane_id];
  return plane.free_count + (geom_.blocks_per_plane - plane.cursor);
}

std::uint64_t BlockManager::free_pages(std::uint64_t plane_id) const {
  assert(plane_id < planes_.size());
  const auto& plane = planes_[plane_id];
  std::uint64_t pages = static_cast<std::uint64_t>(free_blocks(plane_id)) *
                        geom_.pages_per_block;
  if (plane.open_block >= 0) {
    const auto& info =
        blocks_[slot(plane_id, static_cast<std::uint32_t>(plane.open_block))];
    pages += geom_.pages_per_block - info.write_ptr;
  }
  return pages;
}

std::optional<std::uint32_t> BlockManager::select_victim(
    std::uint64_t plane_id) const {
  assert(plane_id < planes_.size());
  // Greedy victim: fewest valid pages (lowest migration cost). Ties break
  // toward the least-erased block — cleaning cost is identical, so take
  // the wear-leveling win; this also guarantees every reclaimable block is
  // eventually cycled instead of a fixed subset. Blocks past the cursor
  // are Free, never Full.
  std::optional<std::uint32_t> best;
  std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t best_erases = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t base = slot(plane_id, 0);
  for (std::uint32_t b = 0; b < planes_[plane_id].cursor; ++b) {
    const auto& info = blocks_[base + b];
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

void BlockManager::valid_pages_into(std::uint64_t plane_id,
                                    std::uint32_t block,
                                    std::vector<sim::Ppn>& out) const {
  out.clear();
  if (block >= planes_[plane_id].cursor) return;
  const sim::Ppn first =
      (plane_id * geom_.blocks_per_plane + block) * geom_.pages_per_block;
  const std::uint32_t wpb = words_per_block();
  const std::uint64_t* words = &valid_bits_[slot(plane_id, block) * wpb];
  for (std::uint32_t w = 0; w < wpb; ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      out.push_back(first + w * 64 +
                    static_cast<unsigned>(std::countr_zero(bits)));
    }
  }
}

std::uint32_t BlockManager::record_program_fail(std::uint64_t plane_id,
                                                std::uint32_t block) {
  auto& info = record(plane_id, block);
  if (info.program_fails < 0xFF) ++info.program_fails;
  return info.program_fails;
}

std::uint32_t BlockManager::record_erase_fail(std::uint64_t plane_id,
                                             std::uint32_t block) {
  auto& info = record(plane_id, block);
  if (info.erase_fails < 0xFF) ++info.erase_fails;
  return info.erase_fails;
}

void BlockManager::retire_block(std::uint64_t plane_id, std::uint32_t block) {
  auto& info = record(plane_id, block);
  auto& plane = planes_[plane_id];
  switch (info.state) {
    case BlockState::kRetired:
      throw std::logic_error("block_manager: block already retired");
    case BlockState::kFree: {
      const auto list = free_ids_.begin() +
                        static_cast<std::ptrdiff_t>(slot(plane_id, 0));
      const auto end = list + plane.free_count;
      const auto it = std::find(list, end, block);
      assert(it != end);
      *it = *(end - 1);
      --plane.free_count;
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
}

void BlockManager::erase_block(std::uint64_t plane_id, std::uint32_t block) {
  PlaneInfo& plane = planes_[plane_id];
  const std::uint64_t s = slot(plane_id, block);
  if (block >= plane.cursor || blocks_[s].state != BlockState::kFull ||
      blocks_[s].valid != 0) {
    throw std::logic_error(
        "block_manager: erase requires a Full block with no valid pages");
  }
  BlockInfo& info = blocks_[s];
  std::fill_n(valid_bits_.begin() + static_cast<std::ptrdiff_t>(
                                        s * words_per_block()),
              words_per_block(), 0);
  info.state = BlockState::kFree;
  info.write_ptr = 0;
  info.valid = 0;
  ++info.erases;
  free_ids_[slot(plane_id, plane.free_count++)] = block;
}

std::uint32_t BlockManager::valid_count(std::uint64_t plane_id,
                                        std::uint32_t block) const {
  if (block >= planes_[plane_id].cursor) return 0;
  return blocks_[slot(plane_id, block)].valid;
}

std::uint64_t BlockManager::erase_count(std::uint64_t plane_id,
                                        std::uint32_t block) const {
  if (block >= planes_[plane_id].cursor) return 0;
  return blocks_[slot(plane_id, block)].erases;
}

BlockState BlockManager::block_state(std::uint64_t plane_id,
                                     std::uint32_t block) const {
  if (block >= planes_[plane_id].cursor) return BlockState::kFree;
  return blocks_[slot(plane_id, block)].state;
}

WearStats BlockManager::wear_stats() const {
  // Never-opened blocks count with zero erases.
  WearStats stats;
  stats.min_erases = std::numeric_limits<std::uint64_t>::max();
  double sum = 0.0;
  std::uint64_t recorded = 0;
  for (std::uint64_t p = 0; p < planes_.size(); ++p) {
    const std::uint64_t base = slot(p, 0);
    for (std::uint32_t b = 0; b < planes_[p].cursor; ++b) {
      const std::uint64_t erases = blocks_[base + b].erases;
      stats.min_erases = std::min(stats.min_erases, erases);
      stats.max_erases = std::max(stats.max_erases, erases);
      stats.total_erases += erases;
      sum += static_cast<double>(erases);
    }
    recorded += planes_[p].cursor;
  }
  if (recorded < geom_.total_blocks()) stats.min_erases = 0;
  stats.mean_erases = sum / static_cast<double>(geom_.total_blocks());
  return stats;
}

std::uint64_t BlockManager::plane_wear_gap(std::uint64_t plane_id) const {
  // Retired blocks are permanently out of rotation — their (frozen) erase
  // counts would otherwise pin the gap and trigger pointless leveling.
  const PlaneInfo& plane = planes_[plane_id];
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max(), hi = 0;
  const std::uint64_t base = slot(plane_id, 0);
  for (std::uint32_t b = 0; b < plane.cursor; ++b) {
    const auto& info = blocks_[base + b];
    if (info.state == BlockState::kRetired) continue;
    lo = std::min(lo, info.erases);
    hi = std::max(hi, info.erases);
  }
  if (plane.cursor < geom_.blocks_per_plane) lo = 0;  // never-opened blocks
  return hi >= lo ? hi - lo : 0;
}

std::optional<std::uint32_t> BlockManager::coldest_full_block(
    std::uint64_t plane_id) const {
  std::optional<std::uint32_t> best;
  std::uint64_t best_erases = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t base = slot(plane_id, 0);
  for (std::uint32_t b = 0; b < planes_[plane_id].cursor; ++b) {
    const auto& info = blocks_[base + b];
    if (info.state != BlockState::kFull) continue;
    if (info.erases < best_erases) {
      best_erases = info.erases;
      best = b;
    }
  }
  return best;
}

std::uint64_t BlockManager::retired_blocks() const {
  std::uint64_t retired = 0;
  for (std::uint64_t p = 0; p < planes_.size(); ++p) {
    for (std::uint32_t b = 0; b < planes_[p].cursor; ++b) {
      retired += blocks_[slot(p, b)].state == BlockState::kRetired ? 1 : 0;
    }
  }
  return retired;
}

void BlockManager::derive_plane(std::uint64_t plane_id) {
  PlaneInfo& plane = planes_[plane_id];
  const std::uint64_t base = slot(plane_id, 0);
  plane.free_count = 0;
  plane.open_block = -1;
  for (std::uint32_t b = 0; b < plane.cursor; ++b) {
    const BlockState state = blocks_[base + b].state;
    if (state == BlockState::kFree) free_ids_[base + plane.free_count++] = b;
    if (state == BlockState::kOpen) plane.open_block = b;
  }
}

std::uint64_t BlockManager::total_valid_pages() const {
  std::uint64_t total = 0;
  for (const auto& info : blocks_) total += info.valid;
  return total;
}

void BlockManager::check_invariants() const {
  auto block_label = [](std::uint64_t plane, std::uint32_t block) {
    return "plane " + std::to_string(plane) + " block " +
           std::to_string(block);
  };
  const std::uint32_t ppb = geom_.pages_per_block;
  const std::uint32_t wpb = words_per_block();

  for (std::uint64_t plane = 0; plane < planes_.size(); ++plane) {
    const PlaneInfo& pinfo = planes_[plane];
    SSDK_CHECK_MSG(pinfo.cursor <= geom_.blocks_per_plane &&
                       pinfo.cursor <= cap_,
                   "plane " + std::to_string(plane) + " cursor " +
                       std::to_string(pinfo.cursor) + " out of range");
    const std::uint64_t base = slot(plane, 0);

    // Free list: every entry names a distinct block below the cursor
    // whose state is kFree, and every kFree record of the plane is listed.
    std::vector<bool> listed(pinfo.cursor, false);
    SSDK_CHECK_MSG(pinfo.free_count <= pinfo.cursor,
                   "free list of plane " + std::to_string(plane) +
                       " is longer than its opened blocks");
    for (std::uint32_t i = 0; i < pinfo.free_count; ++i) {
      const std::uint32_t b = free_ids_[base + i];
      SSDK_CHECK_MSG(b < pinfo.cursor,
                     "free list of plane " + std::to_string(plane) +
                         " holds out-of-range block " + std::to_string(b));
      SSDK_CHECK_MSG(!listed[b], "free list of plane " +
                                     std::to_string(plane) +
                                     " holds duplicate block " +
                                     std::to_string(b));
      listed[b] = true;
      SSDK_CHECK_MSG(blocks_[base + b].state == BlockState::kFree,
                     block_label(plane, b) +
                         " is on the free list but not Free");
    }

    // Open block: registered, in range, and in state kOpen; conversely no
    // unregistered block of the plane may be kOpen.
    if (pinfo.open_block >= 0) {
      SSDK_CHECK_MSG(
          pinfo.open_block < pinfo.cursor,
          "plane " + std::to_string(plane) + " open block out of range");
      SSDK_CHECK_MSG(
          blocks_[base + static_cast<std::uint32_t>(pinfo.open_block)]
                  .state == BlockState::kOpen,
          "plane " + std::to_string(plane) +
              " registers an append point that is not Open");
    }

    for (std::uint32_t b = 0; b < cap_; ++b) {
      const BlockInfo& info = blocks_[base + b];
      const std::uint64_t* words = &valid_bits_[(base + b) * wpb];
      if (b >= pinfo.cursor) {
        // Above the cursor the pool must stay zeroed: is_valid() reads
        // these slots without consulting the cursor.
        SSDK_CHECK_MSG(info.write_ptr == 0 && info.valid == 0 &&
                           info.erases == 0 &&
                           info.state == BlockState::kFree &&
                           info.program_fails == 0 && info.erase_fails == 0 &&
                           std::all_of(words, words + wpb,
                                       [](std::uint64_t w) { return w == 0; }),
                       block_label(plane, b) +
                           " lies above the plane's cursor but is not blank");
        continue;
      }
      SSDK_CHECK_MSG(info.write_ptr <= ppb,
                     block_label(plane, b) + " write pointer overruns");
      SSDK_CHECK_MSG(info.valid <= info.write_ptr,
                     block_label(plane, b) +
                         " counts more valid pages than were written");

      // Valid counter vs. the per-page owner table (count conservation);
      // only programmed pages may be valid.
      std::uint32_t owned = 0;
      for (std::uint32_t w = 0; w < wpb; ++w) {
        owned += static_cast<std::uint32_t>(std::popcount(words[w]));
      }
      SSDK_CHECK_MSG(owned == info.valid,
                     block_label(plane, b) + " valid counter " +
                         std::to_string(info.valid) + " != owned pages " +
                         std::to_string(owned));
      for (std::uint32_t p = info.write_ptr; p < wpb * 64; ++p) {
        SSDK_CHECK_MSG(((words[p >> 6] >> (p & 63)) & 1) == 0,
                       block_label(plane, b) + " page " + std::to_string(p) +
                           " is valid above the write pointer");
      }

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
          SSDK_CHECK_MSG(info.write_ptr < ppb,
                         block_label(plane, b) + " is Open but full");
          break;
        case BlockState::kFull:
          SSDK_CHECK_MSG(info.write_ptr == ppb,
                         block_label(plane, b) +
                             " is Full below its write capacity");
          break;
        case BlockState::kRetired:
          break;
      }
      if (info.state != BlockState::kFree) {
        SSDK_CHECK_MSG(!listed[b], block_label(plane, b) +
                                       " is on the free list but not Free");
      }
    }
  }
}

// BLKM, snapshot format v8:
//   u64 plane count, then per plane:
//   u64 cursor, then per block below it: u32 write_ptr, u64 erases, u8
//   state, u8 program_fails, u8 erase_fails, the block's validity words
//   (one u64 per 64 pages) and one u64 owner per valid page in page order.
// A block's valid count is the popcount of its words; a plane's open
// block and free list follow from the states (derive_plane).
void BlockManager::save_state(snapshot::StateWriter& w) const {
  w.tag("BLKM");
  w.u64(planes_.size());
  const std::uint32_t wpb = words_per_block();
  for (std::uint64_t p = 0; p < planes_.size(); ++p) {
    const PlaneInfo& plane = planes_[p];
    w.u64(plane.cursor);
    for (std::uint32_t b = 0; b < plane.cursor; ++b) {
      const std::uint64_t s = slot(p, b);
      const BlockInfo& info = blocks_[s];
      w.u32(info.write_ptr);
      w.u64(info.erases);
      w.u8(static_cast<std::uint8_t>(info.state));
      w.u8(info.program_fails);
      w.u8(info.erase_fails);
      const std::uint64_t* words = &valid_bits_[s * wpb];
      for (std::uint32_t i = 0; i < wpb; ++i) w.u64(words[i]);
      for (std::uint32_t i = 0; i < wpb; ++i) {
        for (std::uint64_t bits = words[i]; bits != 0; bits &= bits - 1) {
          const auto page = static_cast<std::uint32_t>(
              i * 64 + static_cast<unsigned>(std::countr_zero(bits)));
          w.u64(owners_[owner_base(s) + page]);
        }
      }
    }
  }
}

void BlockManager::load_state(snapshot::StateReader& r) {
  r.tag("BLKM");
  const auto fail = [](std::uint64_t at, const std::string& what) {
    throw snapshot::SnapshotError(
        "snapshot: BLKM at offset " + std::to_string(at) + ": " + what, at);
  };
  const auto block_label = [](std::uint64_t plane, std::uint32_t block) {
    return "plane " + std::to_string(plane) + " block " +
           std::to_string(block);
  };
  *this = BlockManager(geom_);
  const std::uint32_t ppb = geom_.pages_per_block;
  const std::uint32_t wpb = words_per_block();
  const std::uint64_t planes_at = r.offset();
  const std::uint64_t nplanes = r.u64();
  if (nplanes != planes_.size()) {
    fail(planes_at, "plane count mismatch: expected " +
                        std::to_string(planes_.size()) +
                        " (from geometry), found " + std::to_string(nplanes));
  }
  for (std::uint64_t p = 0; p < nplanes; ++p) {
    const std::uint64_t cursor_at = r.offset();
    const std::uint64_t cursor =
        r.checked_count(4 + 8 + 1 + 1 + 1 + std::size_t{8} * wpb);
    if (cursor > geom_.blocks_per_plane) {
      fail(cursor_at, "plane " + std::to_string(p) + " cursor " +
                          std::to_string(cursor) +
                          " exceeds blocks_per_plane " +
                          std::to_string(geom_.blocks_per_plane));
    }
    reserve_blocks(static_cast<std::uint32_t>(cursor));
    planes_[p].cursor = static_cast<std::uint32_t>(cursor);
    bool open_seen = false;
    for (std::uint32_t b = 0; b < cursor; ++b) {
      const std::uint64_t s = slot(p, b);
      BlockInfo& info = blocks_[s];
      const std::uint64_t at = r.offset();
      const std::uint64_t state_at = at + 12;
      info.write_ptr = r.u32();
      info.erases = r.u64();
      const std::uint8_t state = r.u8();
      info.program_fails = r.u8();
      info.erase_fails = r.u8();
      if (state > static_cast<std::uint8_t>(BlockState::kRetired)) {
        fail(state_at,
             block_label(p, b) + " has invalid state " + std::to_string(state));
      }
      info.state = static_cast<BlockState>(state);
      if (info.write_ptr > ppb) {
        fail(at, block_label(p, b) + " write pointer " +
                     std::to_string(info.write_ptr) +
                     " exceeds pages_per_block " + std::to_string(ppb));
      }
      const bool state_fits =
          (info.state == BlockState::kFree && info.write_ptr == 0) ||
          (info.state == BlockState::kOpen && info.write_ptr < ppb) ||
          (info.state == BlockState::kFull && info.write_ptr == ppb) ||
          info.state == BlockState::kRetired;
      if (!state_fits) {
        fail(state_at, block_label(p, b) + " state " + std::to_string(state) +
                           " disagrees with write pointer " +
                           std::to_string(info.write_ptr));
      }
      if (info.state == BlockState::kOpen) {
        // A plane appends into one block at a time.
        if (open_seen) {
          fail(state_at, block_label(p, b) +
                             " is a second Open block in its plane");
        }
        open_seen = true;
      }

      std::uint64_t* words = &valid_bits_[s * wpb];
      for (std::uint32_t i = 0; i < wpb; ++i) {
        const std::uint64_t word_at = r.offset();
        words[i] = r.u64();
        // Only programmed pages (below the write pointer) may be valid.
        const std::uint32_t lo = i * 64;
        const std::uint64_t programmed =
            info.write_ptr >= lo + 64 ? ~std::uint64_t{0}
            : info.write_ptr <= lo
                ? 0
                : (std::uint64_t{1} << (info.write_ptr - lo)) - 1;
        if ((words[i] & ~programmed) != 0) {
          fail(word_at, block_label(p, b) +
                            " marks a page valid at or above its write "
                            "pointer " +
                            std::to_string(info.write_ptr));
        }
        info.valid += static_cast<std::uint32_t>(std::popcount(words[i]));
      }
      for (std::uint32_t i = 0; i < wpb; ++i) {
        for (std::uint64_t bits = words[i]; bits != 0; bits &= bits - 1) {
          const auto page = static_cast<std::uint32_t>(
              i * 64 + static_cast<unsigned>(std::countr_zero(bits)));
          owners_[owner_base(s) + page] = r.u64();
        }
      }
    }
    derive_plane(p);
  }
}

}  // namespace ssdk::ftl
