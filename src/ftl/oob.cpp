#include "ftl/oob.hpp"

#include <string>

#include "util/check.hpp"

namespace ssdk::ftl {

void OobStore::enable(const sim::Geometry& geometry) {
  if (enabled_) return;
  enabled_ = true;
  const std::uint64_t pages = geometry.total_pages();
  owner_.assign(pages, kNoOwner);
  seq_.assign(pages, 0);
  state_.assign(pages, OobState::kErased);
  unknown_blocks_.assign(geometry.total_blocks(), 0);
}

void OobStore::record_program(sim::Ppn ppn, sim::TenantId tenant,
                              std::uint64_t lpn, std::uint64_t seq) {
  SSDK_CHECK_MSG(state_[ppn] == OobState::kErased,
                 "oob: programming page " + std::to_string(ppn) +
                     " whose OOB is not erased");
  owner_[ppn] = pack_owner(tenant, lpn);
  seq_[ppn] = seq;
  state_[ppn] = OobState::kData;
}

void OobStore::record_migration(sim::Ppn src, sim::Ppn dst) {
  SSDK_CHECK_MSG(state_[src] == OobState::kData,
                 "oob: migrating page " + std::to_string(src) +
                     " with unreadable OOB");
  SSDK_CHECK_MSG(state_[dst] == OobState::kErased,
                 "oob: migration target " + std::to_string(dst) +
                     " whose OOB is not erased");
  owner_[dst] = owner_[src];
  seq_[dst] = seq_[src];
  state_[dst] = OobState::kData;
}

void OobStore::record_torn(sim::Ppn ppn) {
  owner_[ppn] = kNoOwner;
  seq_[ppn] = 0;
  state_[ppn] = OobState::kTorn;
}

void OobStore::record_failed(sim::Ppn ppn) {
  owner_[ppn] = kNoOwner;
  seq_[ppn] = 0;
  state_[ppn] = OobState::kFailed;
}

void OobStore::erase_range(sim::Ppn first, std::uint32_t count) {
  for (sim::Ppn p = first; p < first + count; ++p) {
    owner_[p] = kNoOwner;
    seq_[p] = 0;
    state_[p] = OobState::kErased;
  }
}

void OobStore::mark_block_unknown(std::uint64_t global_block) {
  unknown_blocks_[global_block] = 1;
}

void OobStore::clear_block_unknown(std::uint64_t global_block) {
  unknown_blocks_[global_block] = 0;
}

void OobStore::check_invariants() const {
  if (!enabled_) return;
  for (sim::Ppn p = 0; p < state_.size(); ++p) {
    const auto raw = static_cast<std::uint8_t>(state_[p]);
    SSDK_CHECK_MSG(raw <= static_cast<std::uint8_t>(OobState::kFailed),
                   "oob: page " + std::to_string(p) +
                       " carries illegal state " + std::to_string(raw));
    if (state_[p] == OobState::kData) {
      SSDK_CHECK_MSG(owner_[p] != kNoOwner,
                     "oob: data page " + std::to_string(p) +
                         " has no recorded owner");
      SSDK_CHECK_MSG(seq_[p] > 0 && seq_[p] < next_seq_,
                     "oob: data page " + std::to_string(p) +
                         " carries seq " + std::to_string(seq_[p]) +
                         " outside (0, " + std::to_string(next_seq_) + ")");
    } else {
      SSDK_CHECK_MSG(owner_[p] == kNoOwner && seq_[p] == 0,
                     "oob: non-data page " + std::to_string(p) +
                         " still carries owner/seq metadata");
    }
  }
}

void OobStore::save_state(snapshot::StateWriter& w) const {
  w.tag("OOB_");
  w.boolean(enabled_);
  if (!enabled_) return;
  w.u64(next_seq_);
  w.vec_u64(owner_);
  w.vec_u64(seq_);
  w.u64(state_.size());
  for (const OobState s : state_) w.u8(static_cast<std::uint8_t>(s));
  w.u64(unknown_blocks_.size());
  for (const std::uint8_t f : unknown_blocks_) w.u8(f);
}

void OobStore::load_state(snapshot::StateReader& r,
                          const sim::Geometry& geometry) {
  r.tag("OOB_");
  const bool enabled = r.boolean();
  if (!enabled) {
    *this = OobStore{};
    return;
  }
  enable(geometry);
  next_seq_ = r.u64();
  const std::uint64_t owners_at = r.offset() + 8;
  owner_ = r.vec_u64();
  const std::uint64_t seqs_at = r.offset() + 8;
  seq_ = r.vec_u64();
  const std::uint64_t npages = r.checked_count(1);
  if (owner_.size() != geometry.total_pages() ||
      seq_.size() != geometry.total_pages() ||
      npages != geometry.total_pages()) {
    throw snapshot::SnapshotError(
        "snapshot: OOB page-array size mismatch at offset " +
            std::to_string(r.offset()) + ": expected " +
            std::to_string(geometry.total_pages()) + " (from options)",
        r.offset());
  }
  // The rules of check_invariants: recovery trusts every one of them.
  const auto fail = [](std::uint64_t at, sim::Ppn p, const std::string& what) {
    throw snapshot::SnapshotError("snapshot: OOB page " + std::to_string(p) +
                                      " at offset " + std::to_string(at) +
                                      " " + what,
                                  at);
  };
  for (sim::Ppn p = 0; p < npages; ++p) {
    const std::uint64_t at = r.offset();
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(OobState::kFailed)) {
      fail(at, p, "has invalid state " + std::to_string(raw));
    }
    state_[p] = static_cast<OobState>(raw);
    const bool data = state_[p] == OobState::kData;
    if (data != (owner_[p] != kNoOwner)) {
      fail(owners_at + 8 * p, p,
           data ? "holds data but no owner" : "has an owner but no data");
    }
    if (data ? seq_[p] == 0 || seq_[p] >= next_seq_ : seq_[p] != 0) {
      fail(seqs_at + 8 * p, p,
           "carries seq " + std::to_string(seq_[p]) +
               (data ? " outside (0, " + std::to_string(next_seq_) + ")"
                     : " but no data"));
    }
  }
  const std::uint64_t nblocks = r.checked_count(1);
  if (nblocks != geometry.total_blocks()) {
    throw snapshot::SnapshotError(
        "snapshot: OOB unknown-block array size mismatch at offset " +
            std::to_string(r.offset()) + ": expected " +
            std::to_string(geometry.total_blocks()) + " (from options)",
        r.offset());
  }
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::uint64_t at = r.offset();
    unknown_blocks_[b] = r.u8();
    if (unknown_blocks_[b] > 1) {
      throw snapshot::SnapshotError(
          "snapshot: OOB unknown-block flag of block " + std::to_string(b) +
              " at offset " + std::to_string(at) + " is " +
              std::to_string(unknown_blocks_[b]) + ", not 0 or 1",
          at);
    }
  }
}

}  // namespace ssdk::ftl
