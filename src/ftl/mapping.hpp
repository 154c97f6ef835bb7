// Page-level logical-to-physical address mapping, one table per tenant.
//
// Tenants address independent logical spaces (the multi-tenant setting of
// the paper). A tenant's table covers LPNs [0, span): it grows in whole
// kSpanStep-entry steps as higher LPNs are touched, reallocating by at
// least an eighth, so its memory follows the highest LPN written rather
// than the capacity, with under an eighth plus one step of slack.
// Entries are 32-bit PPNs: Geometry::validate keeps every device below
// sim::kInvalidPpn32, which is the stored invalid marker and maps to
// sim::kInvalidPpn at this class's boundary. Every API speaks 64-bit Ppn.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/geometry.hpp"
#include "sim/request.hpp"
#include "snapshot/archive.hpp"
#include "util/check.hpp"

namespace ssdk::ftl {

class MappingTable {
 public:
  /// Granularity of a table's span: 1024 entries, one 4 KiB page.
  static constexpr std::uint64_t kSpanStep = 1024;

  /// Current mapping for (tenant, lpn); kInvalidPpn when never written.
  /// Inline: this is one array probe per host page op.
  sim::Ppn lookup(sim::TenantId tenant, std::uint64_t lpn) const {
    if (tenant >= tables_.size()) return sim::kInvalidPpn;
    const auto& table = tables_[tenant];
    if (lpn >= table.size()) return sim::kInvalidPpn;
    return unpack(table[lpn]);
  }

  /// Install a new mapping; returns the previous PPN (kInvalidPpn if none).
  /// Inline fast path: once the tenant's table already covers the LPN
  /// (steady state — every page write lands here), this is one array
  /// store.
  sim::Ppn update(sim::TenantId tenant, std::uint64_t lpn, sim::Ppn ppn) {
    if (tenant >= tables_.size() || lpn >= tables_[tenant].size()) {
      return grow_and_update(tenant, lpn, ppn);
    }
    SSDK_ASSERT(ppn == sim::kInvalidPpn || ppn < sim::kInvalidPpn32);
    // kInvalidPpn's low 32 bits are the 32-bit marker, so truncation
    // packs both valid and invalid PPNs.
    sim::Ppn32& slot = tables_[tenant][lpn];
    const sim::Ppn32 old = slot;
    slot = static_cast<sim::Ppn32>(ppn);
    return unpack(old);
  }

  /// Remove the mapping (trim); returns the previous PPN.
  sim::Ppn erase(sim::TenantId tenant, std::uint64_t lpn);

  /// Drop every mapping while keeping the tenant tables (and their spans)
  /// allocated — the recovery scan rebuilds the map in place and recovered
  /// LPNs are always a subset of previously touched ones.
  void clear();

  /// Number of mapped (valid) logical pages for a tenant: a count over
  /// its table, O(span).
  std::uint64_t mapped_count(sim::TenantId tenant) const;

  std::size_t tenant_table_count() const { return tables_.size(); }

  /// Logical span of one tenant's table: the highest touched LPN + 1,
  /// rounded up to a whole kSpanStep. Lets audits enumerate mapped LPNs
  /// without exposing the backing vectors.
  std::uint64_t table_span(sim::TenantId tenant) const {
    return tenant < tables_.size() ? tables_[tenant].size() : 0;
  }

  /// Entries allocated for one tenant's table: at least its span, and
  /// below span + span / 8 + kSpanStep (exactly the span after a copy or
  /// a snapshot load).
  std::uint64_t table_capacity(sim::TenantId tenant) const {
    return tenant < tables_.size() ? tables_[tenant].capacity() : 0;
  }

  /// Audit: every span is a whole number of kSpanSteps. Throws
  /// util::InvariantViolation otherwise.
  void check_invariants() const;

  void save_state(snapshot::StateWriter& w) const;
  /// Throws SnapshotError unless every entry is the invalid marker or
  /// below `total_pages` and every span is a whole number of kSpanSteps.
  void load_state(snapshot::StateReader& r, std::uint64_t total_pages);

 private:
  static sim::Ppn unpack(sim::Ppn32 entry) {
    return entry == sim::kInvalidPpn32 ? sim::kInvalidPpn : entry;
  }

  std::vector<sim::Ppn32>& table_for(sim::TenantId tenant);
  /// Slow path of update(): validate the tenant id, grow the table to
  /// cover the LPN, then install the mapping.
  sim::Ppn grow_and_update(sim::TenantId tenant, std::uint64_t lpn,
                           sim::Ppn ppn);

  // Dense tenant ids index directly; the tables vector grows as needed.
  std::vector<std::vector<sim::Ppn32>> tables_;
};

}  // namespace ssdk::ftl
