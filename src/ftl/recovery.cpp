// Power-up recovery: rebuild the FTL's volatile state from per-page OOB
// metadata (DESIGN.md §14).
//
// Durable inputs: page data + OOB (owner, global write sequence number),
// the bad-block table (retired flags) and per-block erase counters — a
// real device keeps the latter two in block 0 / the OOB of each block's
// first page. Everything else (L2P map, free lists, open blocks, valid
// counts, write pointers) is DRAM and is reconstructed here.
//
// Conflict resolution: one logical page may have several readable physical
// copies after a crash (host rewrites whose predecessor was never
// collected, GC copies whose source block was never erased). The highest
// sequence number wins; equal sequence numbers (a migration's source and
// destination copy of the *same* version) are broken toward the lower PPN
// by the ascending scan order. Exactly one copy per logical page survives
// as valid — valid pages can neither be lost nor double-counted.
//
// Block sealing: any block holding at least one programmed page is sealed
// kFull (write pointer pinned to the block's capacity) rather than
// reopened mid-block — pages allocated but never programmed before the cut
// would otherwise be reused under a stale write pointer. The sealed waste
// is reclaimable by normal GC. Untouched blocks return to the free list;
// blocks with an erase in flight at the cut are unknown and re-erased.
#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "ftl/block_manager.hpp"
#include "ftl/ftl.hpp"
#include "ftl/mapping.hpp"
#include "ftl/oob.hpp"

namespace ssdk::ftl {

void BlockManager::recover_from_oob(OobStore& oob, MappingTable& map,
                                    RecoveryReport& report) {
  const std::uint32_t ppb = geom_.pages_per_block;
  const std::uint32_t bpp = geom_.blocks_per_plane;
  const std::uint64_t nblocks = geom_.total_blocks();
  report.scanned_pages += geom_.total_pages();

  // Pass 1: settle unknown blocks (erase was in flight at the cut). A
  // healthy block is re-erased at mount; a retired block is never erased,
  // so its unknown contents are written off as dead pages.
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    if (!oob.block_unknown(b)) continue;
    oob.clear_block_unknown(b);
    const sim::Ppn first = b * ppb;
    BlockInfo& info = record(b / bpp, static_cast<std::uint32_t>(b % bpp));
    if (info.state == BlockState::kRetired) {
      for (sim::Ppn p = first; p < first + ppb; ++p) oob.record_failed(p);
      continue;
    }
    oob.erase_range(first, ppb);
    ++info.erases;
    ++report.unknown_blocks;
    ++report.reerases_per_plane[b / bpp];
  }

  // Pass 2: scan every page's OOB in ascending PPN order and keep, per
  // logical page, the copy with the highest sequence number (first seen
  // wins ties — the lowest PPN). Torn pages are discarded and downgraded
  // to kFailed so a later crash-recovery cycle does not recount them.
  // Every block holding a programmed page gets a record.
  std::map<std::uint64_t, std::pair<std::uint64_t, sim::Ppn>> best;
  std::uint64_t readable = 0;
  for (sim::Ppn p = 0; p < geom_.total_pages(); ++p) {
    const OobState state = oob.state(p);
    switch (state) {
      case OobState::kData: {
        ++readable;
        const std::uint64_t key = oob.owner(p);
        const std::uint64_t seq = oob.seq(p);
        const auto [it, inserted] = best.try_emplace(key, seq, p);
        if (!inserted && seq > it->second.first) it->second = {seq, p};
        break;
      }
      case OobState::kTorn:
        ++report.torn_pages;
        oob.record_failed(p);
        break;
      case OobState::kErased:
      case OobState::kFailed:
        break;
    }
    if (state != OobState::kErased) {
      const std::uint64_t b = p / ppb;
      record(b / bpp, static_cast<std::uint32_t>(b % bpp));
    }
  }

  // Pass 3: rebuild block bookkeeping. Only retired flags and erase
  // counters survive; fail counters are volatile DRAM and reset. Blocks
  // past a plane's cursor were never programmed and stay implicitly Free.
  for (std::uint64_t plane = 0; plane < planes_.size(); ++plane) {
    for (std::uint32_t blk = 0; blk < planes_[plane].cursor; ++blk) {
      BlockInfo& info = blocks_[slot(plane, blk)];
      info.program_fails = 0;
      info.erase_fails = 0;
      info.valid = 0;
      if (info.state == BlockState::kRetired) continue;
      bool programmed = false;
      const sim::Ppn first = (plane * bpp + blk) * ppb;
      for (sim::Ppn p = first; p < first + ppb; ++p) {
        if (oob.state(p) != OobState::kErased) {
          programmed = true;
          break;
        }
      }
      if (programmed) {
        info.state = BlockState::kFull;
        info.write_ptr = ppb;
      } else {
        info.state = BlockState::kFree;
        info.write_ptr = 0;
      }
    }
  }
  std::fill(valid_bits_.begin(), valid_bits_.end(), 0);

  // Pass 4: install the winners — owner table, valid counts, L2P map.
  for (const auto& [key, win] : best) {
    const sim::Ppn ppn = win.second;
    set_owner_raw(ppn, key);
    ++blocks_[locate(ppn).slot].valid;
    map.update(OobStore::owner_tenant(key), OobStore::owner_lpn(key), ppn);
  }
  report.recovered_pages += best.size();
  report.stale_pages += readable - best.size();

  // Pass 5: free lists and append points (pass 3 left no block Open).
  for (std::uint64_t plane = 0; plane < planes_.size(); ++plane) {
    derive_plane(plane);
  }

  // Retired blocks still holding winners need their rescue migration
  // restarted by the device model.
  for (std::uint64_t plane = 0; plane < planes_.size(); ++plane) {
    for (std::uint32_t blk = 0; blk < planes_[plane].cursor; ++blk) {
      const BlockInfo& info = blocks_[slot(plane, blk)];
      if (info.state == BlockState::kRetired && info.valid > 0) {
        report.rescue_blocks.emplace_back(plane, blk);
      }
    }
  }
}

RecoveryReport Ftl::recover_after_power_loss() {
  if (!oob_.enabled()) {
    throw std::logic_error(
        "ftl: recovery scan requires OOB metadata — enable the power model "
        "before the crash, not after");
  }
  RecoveryReport report;
  report.reerases_per_plane.assign(geom_.total_planes(), 0);
  map_.clear();
  blocks_.recover_from_oob(oob_, map_, report);
  return report;
}

}  // namespace ssdk::ftl
