#include "ftl/ftl.hpp"

#include <algorithm>
#include <cassert>

#include "util/check.hpp"

namespace ssdk::ftl {

Ftl::Ftl(const sim::Geometry& geometry, FtlConfig config)
    : geom_(geometry), config_(config), blocks_(geometry) {
  geom_.validate();
  if (config_.gc_target_free_blocks < config_.gc_trigger_free_blocks) {
    throw std::invalid_argument("ftl: gc target below trigger");
  }
  all_channels_.resize(geom_.channels);
  for (std::uint32_t c = 0; c < geom_.channels; ++c) all_channels_[c] = c;
}

Ftl::TenantPolicy& Ftl::policy_for(sim::TenantId tenant) {
  if (tenant == sim::kInternalTenant) {
    // GC/rescue traffic places via allocate_migration / allocate_rescue;
    // reaching here with the internal tenant would silently grow the
    // policy table to 2^32 entries (tenant + 1 wraps to 0 in 32 bits).
    throw std::logic_error("ftl: internal tenant has no placement policy");
  }
  if (policies_.size() <= tenant) {
    policies_.resize(static_cast<std::size_t>(tenant) + 1);
  }
  auto& p = policies_[tenant];
  if (p.channels.empty()) p.channels = all_channels_;
  return p;
}

void Ftl::set_tenant_channels(sim::TenantId tenant,
                              std::vector<std::uint32_t> channels) {
  if (channels.empty()) {
    throw std::invalid_argument("ftl: tenant channel set must be non-empty");
  }
  for (const auto ch : channels) {
    if (ch >= geom_.channels) {
      throw std::invalid_argument("ftl: channel id out of range");
    }
  }
  std::sort(channels.begin(), channels.end());
  channels.erase(std::unique(channels.begin(), channels.end()),
                 channels.end());
  policy_for(tenant).channels = std::move(channels);
}

// A const reader must not change the device's state (its snapshot, or a
// reference an earlier query returned), so no policy_for() here.
const std::vector<std::uint32_t>& Ftl::tenant_channels(
    sim::TenantId tenant) const {
  if (tenant < policies_.size() && !policies_[tenant].channels.empty()) {
    return policies_[tenant].channels;
  }
  return all_channels_;
}

void Ftl::set_tenant_alloc_mode(sim::TenantId tenant, AllocMode mode) {
  policy_for(tenant).mode = mode;
}

AllocMode Ftl::tenant_alloc_mode(sim::TenantId tenant) const {
  return tenant < policies_.size() ? policies_[tenant].mode
                                   : TenantPolicy{}.mode;
}

sim::Ppn Ftl::allocate_near(const PlaneTarget& target,
                            const std::vector<std::uint32_t>& channels) {
  // Preferred plane, then sibling planes on the same chip, then sibling
  // chips on the same channel, then the rest of the allowed channel set.
  const auto try_plane = [&](std::uint32_t ch, std::uint32_t chip,
                             std::uint32_t plane) -> sim::Ppn {
    PlaneTarget t{ch, chip, plane};
    if (auto ppn = blocks_.allocate_page(t.plane_id(geom_))) return *ppn;
    return sim::kInvalidPpn;
  };

  sim::Ppn ppn = try_plane(target.channel, target.chip, target.plane);
  if (ppn != sim::kInvalidPpn) return ppn;

  for (std::uint32_t pl = 0; pl < geom_.planes_per_chip; ++pl) {
    if (pl == target.plane) continue;
    ppn = try_plane(target.channel, target.chip, pl);
    if (ppn != sim::kInvalidPpn) return ppn;
  }
  for (std::uint32_t chip = 0; chip < geom_.chips_per_channel; ++chip) {
    if (chip == target.chip) continue;
    for (std::uint32_t pl = 0; pl < geom_.planes_per_chip; ++pl) {
      ppn = try_plane(target.channel, chip, pl);
      if (ppn != sim::kInvalidPpn) return ppn;
    }
  }
  for (const std::uint32_t ch : channels) {
    if (ch == target.channel) continue;
    for (std::uint32_t chip = 0; chip < geom_.chips_per_channel; ++chip) {
      for (std::uint32_t pl = 0; pl < geom_.planes_per_chip; ++pl) {
        ppn = try_plane(ch, chip, pl);
        if (ppn != sim::kInvalidPpn) return ppn;
      }
    }
  }
  return sim::kInvalidPpn;
}

sim::Ppn Ftl::translate_read(sim::TenantId tenant, std::uint64_t lpn) {
  const sim::Ppn mapped = map_.lookup(tenant, lpn);
  if (mapped != sim::kInvalidPpn) return mapped;

  // Prepopulate: the data is assumed to predate the simulation. Static
  // placement keeps sequential LPNs striped over the tenant's channels.
  const auto& policy = policy_for(tenant);
  const PlaneTarget target = static_place(geom_, policy.channels, lpn);
  const sim::Ppn ppn = allocate_near(target, policy.channels);
  if (ppn == sim::kInvalidPpn) throw DeviceFullError(tenant, lpn);
  blocks_.mark_valid(ppn, tenant, lpn);
  map_.update(tenant, lpn, ppn);
  // Prepopulated data "was written before the simulation": its OOB is
  // already on flash, so it survives power loss like any other page.
  if (oob_.enabled()) {
    oob_.record_program(ppn, tenant, lpn, oob_.fresh_seq());
  }
  return ppn;
}

sim::Ppn Ftl::finish_host_write(sim::TenantId tenant, std::uint64_t lpn,
                                const PlaneTarget& target,
                                const std::vector<std::uint32_t>& channels) {
  const sim::Ppn ppn = allocate_near(target, channels);
  if (ppn == sim::kInvalidPpn) throw DeviceFullError(tenant, lpn);
  blocks_.mark_valid(ppn, tenant, lpn);
  const sim::Ppn old = map_.update(tenant, lpn, ppn);
  if (old != sim::kInvalidPpn) blocks_.invalidate(old);
  if (tracer_ && tracer_->config().ftl_decisions) {
    const sim::PhysAddr a = geom_.decode(ppn);
    tracer_->record_point(trace_now(), telemetry::SpanKind::kPageAlloc,
                          tenant, a.channel,
                          static_cast<std::uint32_t>(geom_.plane_id(a)),
                          lpn);
  }
  return ppn;
}

bool Ftl::trim(sim::TenantId tenant, std::uint64_t lpn) {
  const sim::Ppn old = map_.erase(tenant, lpn);
  if (old == sim::kInvalidPpn) return false;
  blocks_.invalidate(old);
  return true;
}

bool Ftl::needs_gc(std::uint64_t plane_id) const {
  return blocks_.free_blocks(plane_id) <= config_.gc_trigger_free_blocks;
}

bool Ftl::gc_satisfied(std::uint64_t plane_id) const {
  return blocks_.free_blocks(plane_id) > config_.gc_target_free_blocks;
}

std::optional<std::uint32_t> Ftl::select_victim(
    std::uint64_t plane_id) const {
  const auto victim = blocks_.select_victim(plane_id);
  if (victim && tracer_) {
    tracer_->record_point(trace_now(), telemetry::SpanKind::kGcVictim,
                          sim::kInternalTenant, plane_channel(plane_id),
                          static_cast<std::uint32_t>(plane_id), *victim);
  }
  return victim;
}

void Ftl::valid_pages_into(std::uint64_t plane_id, std::uint32_t block,
                           std::vector<sim::Ppn>& out) const {
  blocks_.valid_pages_into(plane_id, block, out);
}

sim::Ppn Ftl::allocate_migration(std::uint64_t plane_id) {
  if (auto ppn = blocks_.allocate_page(plane_id)) return *ppn;
  return sim::kInvalidPpn;
}

bool Ftl::complete_migration(sim::Ppn src, sim::Ppn dst) {
  if (!blocks_.is_valid(src)) {
    // Overwritten while the migration was in flight: the copy is garbage.
    return false;
  }
  const PageOwner who = blocks_.owner(src);
  blocks_.invalidate(src);
  blocks_.mark_valid(dst, who.tenant, who.lpn);
  map_.update(who.tenant, who.lpn, dst);
  return true;
}

void Ftl::erase_block(std::uint64_t plane_id, std::uint32_t block) {
  blocks_.erase_block(plane_id, block);
  if (oob_.enabled()) {
    const std::uint64_t first =
        (plane_id * geom_.blocks_per_plane + block) * geom_.pages_per_block;
    oob_.erase_range(first, geom_.pages_per_block);
  }
}

sim::Ppn Ftl::allocate_rescue(std::uint64_t plane_id) {
  if (auto ppn = blocks_.allocate_page(plane_id)) return *ppn;
  // Sibling planes of the same chip first, then every plane in order.
  const std::uint64_t chip = plane_id / geom_.planes_per_chip;
  const std::uint64_t base = chip * geom_.planes_per_chip;
  for (std::uint32_t pl = 0; pl < geom_.planes_per_chip; ++pl) {
    if (base + pl == plane_id) continue;
    if (auto ppn = blocks_.allocate_page(base + pl)) return *ppn;
  }
  for (std::uint64_t p = 0; p < geom_.total_planes(); ++p) {
    if (p / geom_.planes_per_chip == chip) continue;
    if (auto ppn = blocks_.allocate_page(p)) return *ppn;
  }
  return sim::kInvalidPpn;
}

bool Ftl::discard_failed_program(sim::TenantId tenant, std::uint64_t lpn,
                                 sim::Ppn failed) {
  const bool still_current = map_.lookup(tenant, lpn) == failed;
  blocks_.invalidate(failed);  // no-op when a newer write already did
  if (still_current) map_.erase(tenant, lpn);
  return still_current;
}

sim::Ppn Ftl::rewrite_page(sim::TenantId tenant, std::uint64_t lpn,
                           const sim::PhysAddr& failed_addr) {
  const auto& policy = policy_for(tenant);
  PlaneTarget target{failed_addr.channel, failed_addr.chip,
                     (failed_addr.plane + 1) % geom_.planes_per_chip};
  const sim::Ppn ppn = allocate_near(target, policy.channels);
  if (ppn == sim::kInvalidPpn) throw DeviceFullError(tenant, lpn);
  blocks_.mark_valid(ppn, tenant, lpn);
  map_.update(tenant, lpn, ppn);
  return ppn;
}

void Ftl::drop_lost_page(sim::Ppn ppn) {
  if (!blocks_.is_valid(ppn)) return;  // superseded while in flight
  const PageOwner who = blocks_.owner(ppn);
  map_.erase(who.tenant, who.lpn);
  blocks_.invalidate(ppn);
  // The media ate the page: its OOB must not resurrect the dead data on
  // the next recovery scan.
  if (oob_.enabled()) oob_.record_failed(ppn);
}

std::optional<std::uint32_t> Ftl::wear_leveling_candidate(
    std::uint64_t plane_id) const {
  if (config_.wear_gap_threshold == 0) return std::nullopt;
  if (blocks_.plane_wear_gap(plane_id) <= config_.wear_gap_threshold) {
    return std::nullopt;
  }
  return blocks_.coldest_full_block(plane_id);
}

void Ftl::check_invariants() const {
  map_.check_invariants();
  blocks_.check_invariants();

  // Forward direction: every mapped LPN points at an in-range, valid page
  // whose recorded owner is exactly that (tenant, LPN).
  const std::uint64_t total_pages = geom_.total_pages();
  for (sim::TenantId t = 0;
       t < static_cast<sim::TenantId>(map_.tenant_table_count()); ++t) {
    const std::uint64_t span = map_.table_span(t);
    for (std::uint64_t lpn = 0; lpn < span; ++lpn) {
      const sim::Ppn ppn = map_.lookup(t, lpn);
      if (ppn == sim::kInvalidPpn) continue;
      SSDK_CHECK_MSG(ppn < total_pages,
                     "l2p: tenant " + std::to_string(t) + " lpn " +
                         std::to_string(lpn) + " maps out of range");
      SSDK_CHECK_MSG(blocks_.is_valid(ppn),
                     "l2p: tenant " + std::to_string(t) + " lpn " +
                         std::to_string(lpn) + " maps to invalid ppn " +
                         std::to_string(ppn));
      const PageOwner who = blocks_.owner(ppn);
      SSDK_CHECK_MSG(who.tenant == t && who.lpn == lpn,
                     "l2p: ppn " + std::to_string(ppn) + " owned by (" +
                         std::to_string(who.tenant) + ", " +
                         std::to_string(who.lpn) + ") but mapped from (" +
                         std::to_string(t) + ", " + std::to_string(lpn) +
                         ")");
    }
  }

  // Reverse direction: every valid physical page is reachable through its
  // owner's mapping — together with the forward pass this makes the
  // mapping a bijection between mapped LPNs and valid pages.
  for (sim::Ppn ppn = 0; ppn < total_pages; ++ppn) {
    if (!blocks_.is_valid(ppn)) continue;
    const PageOwner who = blocks_.owner(ppn);
    SSDK_CHECK_MSG(map_.lookup(who.tenant, who.lpn) == ppn,
                   "l2p: valid ppn " + std::to_string(ppn) +
                       " owned by (" + std::to_string(who.tenant) + ", " +
                       std::to_string(who.lpn) +
                       ") is not reachable through the mapping");
  }

  // OOB metadata vs. block bookkeeping. A valid page with an erased OOB is
  // legal (program still in flight — validity is claimed at allocation,
  // OOB written at completion); a torn or failed page must never be valid,
  // and a readable OOB on a valid page must agree with the owner table.
  oob_.check_invariants();
  if (oob_.enabled()) {
    for (sim::Ppn ppn = 0; ppn < total_pages; ++ppn) {
      const OobState s = oob_.state(ppn);
      if (s == OobState::kTorn || s == OobState::kFailed) {
        SSDK_CHECK_MSG(!blocks_.is_valid(ppn),
                       "oob: unreadable ppn " + std::to_string(ppn) +
                           " is still marked valid");
      } else if (s == OobState::kData && blocks_.is_valid(ppn)) {
        const PageOwner who = blocks_.owner(ppn);
        SSDK_CHECK_MSG(
            oob_.owner(ppn) == OobStore::pack_owner(who.tenant, who.lpn),
            "oob: ppn " + std::to_string(ppn) +
                " OOB owner disagrees with the block manager's owner");
      }
    }
  }
}

void Ftl::save_state(snapshot::StateWriter& w) const {
  w.tag("FTL_");
  map_.save_state(w);
  blocks_.save_state(w);
  w.u64(policies_.size());
  for (const TenantPolicy& p : policies_) {
    w.vec_u32(p.channels);
    w.u8(static_cast<std::uint8_t>(p.mode));
    w.u64(p.rr_counter);
  }
  oob_.save_state(w);
}

void Ftl::load_state(snapshot::StateReader& r) {
  r.tag("FTL_");
  map_.load_state(r, geom_.total_pages());
  blocks_.load_state(r);
  const std::uint64_t n = r.checked_count(8 + 1 + 8);
  policies_.assign(n, TenantPolicy{});
  for (std::uint64_t t = 0; t < n; ++t) {
    TenantPolicy& p = policies_[t];
    const std::uint64_t ids_at = r.offset() + 8;
    p.channels = r.vec_u32();
    std::vector<bool> seen(geom_.channels, false);
    for (std::size_t i = 0; i < p.channels.size(); ++i) {
      const std::uint32_t ch = p.channels[i];
      if (ch >= geom_.channels || seen[ch]) {
        const std::uint64_t at = ids_at + 4 * i;
        throw snapshot::SnapshotError(
            "snapshot: tenant " + std::to_string(t) + " policy at offset " +
                std::to_string(at) + " lists channel " + std::to_string(ch) +
                (ch >= geom_.channels
                     ? ", beyond the device's " +
                           std::to_string(geom_.channels) + " channels"
                     : " twice"),
            at);
      }
      seen[ch] = true;
    }
    const std::uint64_t mode_at = r.offset();
    const std::uint8_t mode = r.u8();
    if (mode > static_cast<std::uint8_t>(AllocMode::kDynamic)) {
      throw snapshot::SnapshotError(
          "snapshot: tenant " + std::to_string(t) +
              " policy has invalid alloc mode at offset " +
              std::to_string(mode_at) + ": expected 0|1, found " +
              std::to_string(mode),
          mode_at);
    }
    p.mode = static_cast<AllocMode>(mode);
    p.rr_counter = r.u64();
  }
  oob_.load_state(r, geom_);
}

}  // namespace ssdk::ftl
