#include "ftl/mapping.hpp"

#include <algorithm>
#include <stdexcept>

namespace ssdk::ftl {

namespace {
constexpr std::size_t kMaxTenants = 1024;  // sanity bound on dense ids
}

std::vector<sim::Ppn32>& MappingTable::table_for(sim::TenantId tenant) {
  if (tenant >= kMaxTenants) {
    throw std::invalid_argument("mapping: tenant id too large (dense ids "
                                "expected): " + std::to_string(tenant));
  }
  if (tables_.size() <= tenant) tables_.resize(tenant + 1);
  return tables_[tenant];
}

sim::Ppn MappingTable::grow_and_update(sim::TenantId tenant,
                                       std::uint64_t lpn, sim::Ppn ppn) {
  auto& table = table_for(tenant);
  if (lpn >= table.size()) {
    // Whole steps. A reallocation reserves at least an eighth more than
    // the old span, rounded up to a step: a rising LPN stream copies the
    // table O(log span) times, and the slack stays below an eighth plus
    // one step (resize() alone would double, leaving up to half unused).
    const std::uint64_t span = (lpn / kSpanStep + 1) * kSpanStep;
    if (span > table.capacity()) {
      const std::uint64_t grown = table.size() + table.size() / 8;
      table.reserve(std::max(span, (grown + kSpanStep - 1) / kSpanStep *
                                       kSpanStep));
    }
    table.resize(span, sim::kInvalidPpn32);
  }
  return update(tenant, lpn, ppn);  // re-enters on the fast path
}

sim::Ppn MappingTable::erase(sim::TenantId tenant, std::uint64_t lpn) {
  return update(tenant, lpn, sim::kInvalidPpn);
}

void MappingTable::clear() {
  for (auto& table : tables_) {
    std::fill(table.begin(), table.end(), sim::kInvalidPpn32);
  }
}

std::uint64_t MappingTable::mapped_count(sim::TenantId tenant) const {
  if (tenant >= tables_.size()) return 0;
  const auto& table = tables_[tenant];
  return static_cast<std::uint64_t>(
      std::count_if(table.begin(), table.end(),
                    [](sim::Ppn32 e) { return e != sim::kInvalidPpn32; }));
}

void MappingTable::check_invariants() const {
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    SSDK_CHECK_MSG(tables_[t].size() % kSpanStep == 0,
                   "mapping: tenant " + std::to_string(t) + " span " +
                       std::to_string(tables_[t].size()) +
                       " is not a whole number of steps");
  }
}

// Layout (v8): "L2PM", u64 tenant count, then per tenant a u64 span (a
// whole number of kSpanSteps) and span u32 entries (0xFFFFFFFF =
// unmapped).
void MappingTable::save_state(snapshot::StateWriter& w) const {
  w.tag("L2PM");
  w.u64(tables_.size());
  for (const auto& table : tables_) w.vec_u32(table);
}

void MappingTable::load_state(snapshot::StateReader& r,
                              std::uint64_t total_pages) {
  r.tag("L2PM");
  const std::uint64_t count_at = r.offset();
  const std::uint64_t n = r.checked_count(8);
  if (n > kMaxTenants) {
    throw snapshot::SnapshotError(
        "snapshot: mapping table tenant count " + std::to_string(n) +
            " at offset " + std::to_string(count_at) + " exceeds limit " +
            std::to_string(kMaxTenants),
        count_at);
  }
  tables_.assign(n, {});
  for (std::uint64_t t = 0; t < n; ++t) {
    const std::uint64_t span_at = r.offset();
    const std::uint64_t span = r.checked_count(sizeof(sim::Ppn32));
    if (span % kSpanStep != 0) {
      throw snapshot::SnapshotError(
          "snapshot: L2P table of tenant " + std::to_string(t) +
              " at offset " + std::to_string(span_at) + " spans " +
              std::to_string(span) + " entries, not a whole number of " +
              std::to_string(kSpanStep) + "-entry steps",
          span_at);
    }
    std::vector<sim::Ppn32> table(span);
    for (sim::Ppn32& entry : table) {
      const std::uint64_t at = r.offset();
      entry = r.u32();
      if (entry != sim::kInvalidPpn32 && entry >= total_pages) {
        throw snapshot::SnapshotError(
            "snapshot: L2P entry at offset " + std::to_string(at) +
                " maps to ppn " + std::to_string(entry) +
                ", beyond the device's " + std::to_string(total_pages) +
                " pages",
            at);
      }
    }
    tables_[t] = std::move(table);
  }
}

}  // namespace ssdk::ftl
