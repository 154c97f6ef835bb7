// Power-loss injection and recovery for the device model (DESIGN.md §14).
//
// power_off() applies the volatile-state semantics of a sudden cut:
//   * granted (executing) programs tear their target pages,
//   * granted erases leave their block in an unknown state,
//   * queued-but-unstarted ops simply vanish (their allocated pages were
//     never programmed, so the OOB scan never sees them),
//   * the DRAM write buffer and every queue/event evaporate.
// Only flash contents + OOB, the bad-block table (retired flags + erase
// counters) and the host-visible trace survive; power_on() rebuilds the
// rest via the FTL's recovery scan and charges the modeled mount time.
//
// Classification needs no event-queue introspection: every in-use op is
// either sitting in exactly one op queue (not yet granted) or has a
// pending completion event (granted) — so "granted" is "in use and in no
// queue".
#include "ssd/ssd.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace ssdk::ssd {

PowerLossReport Ssd::power_off() {
  if (powered_off_) {
    throw std::logic_error("ssd: power_off on an already powered-off device");
  }
  ftl::OobStore& oob = ftl_.oob();
  if (!oob.enabled()) {
    throw std::logic_error(
        "ssd: power_off requires options().power.enabled — OOB metadata "
        "was never recorded, so recovery would be impossible");
  }

  PowerLossReport report;

  // Granted-vs-queued classification: mark every queued op id.
  std::vector<std::uint8_t> queued(ops_.size(), 0);
  const auto mark = [&](const OpQueue& q) {
    for (std::size_t i = 0; i < q.size(); ++i) queued[q.at(i)] = 1;
  };
  for (const ChannelState& ch : channels_) mark(ch.read_q);
  for (const UnitState& u : units_) {
    mark(u.read_wait);
    mark(u.erase_wait);
    mark(u.write_q);
  }

  for (std::size_t id = 0; id < ops_.size(); ++id) {
    const PageOp& op = ops_[id];
    if (!op.in_use || queued[id]) continue;  // free, or never started
    switch (op.kind) {
      case OpKind::kHostWrite:
      case OpKind::kFlushWrite:
      case OpKind::kGcWrite:
        // Program in flight: the page is consumed but unreadable.
        oob.record_torn(op.ppn);
        ++report.torn_pages;
        if (op.kind == OpKind::kGcWrite) {
          if (gc_jobs_[op.gc_job].rescue) {
            ++report.torn_rescue_pages;
          } else {
            ++report.torn_gc_pages;
          }
        }
        break;
      case OpKind::kErase:
        oob.mark_block_unknown(options_.geometry.block_id(addr_of(op)));
        ++report.unknown_blocks;
        break;
      case OpKind::kHostRead:
      case OpKind::kGcRead:
        break;  // reads destroy nothing
    }
  }

  // Acked-volatile loss: every dirty buffered page dies, counted per
  // tenant.
  std::map<sim::TenantId, std::uint64_t> lost;
  // ssdk-lint: allow(unordered-iter): counts accumulate into a sorted map
  // before any observable effect, so hash order cannot leak out.
  for (const auto& [key, kept] : buffer_) {
    ++lost[static_cast<sim::TenantId>(key >> 40)];
  }
  for (const auto& [tenant, pages] : lost) {
    metrics_.record_volatile_loss(tenant, pages);
    report.lost_buffered_pages += pages;
    if (tracer_) {
      tracer_->record_point(now_, telemetry::SpanKind::kVolatileLoss, tenant,
                            0, 0, pages);
    }
  }

  // Requests that arrived but will never complete (their in-flight pages
  // died with the queues). They are left in the table — replay after
  // power_on continues with the *next* arrivals — and simply never
  // produce a completion, exactly like a real crashed host ioctl.
  for (std::uint64_t i = 0; i < arrival_cursor_; ++i) {
    if (requests_[i].remaining > 0) ++report.interrupted_requests;
  }
  metrics_.counters().interrupted_requests += report.interrupted_requests;
  ++metrics_.counters().power_cycles;
  if (tracer_) {
    tracer_->record_point(now_, telemetry::SpanKind::kPowerLoss,
                          sim::kInternalTenant, 0, 0, report.torn_pages);
  }

  // Wipe every volatile structure. Monotonic counters (next_enq_seq_,
  // busy-time accumulators, metrics) survive: they are simulator
  // bookkeeping, not device DRAM.
  events_.clear();
  for (ChannelState& ch : channels_) {
    ch.bus_busy = false;
    ch.bus_free_at = 0;
    ch.read_q.clear();
    ch.rr_toggle = false;
  }
  for (UnitState& u : units_) {
    u.busy = false;
    u.busy_until = 0;
    u.read_wait.clear();
    u.erase_wait.clear();
    u.write_q.clear();
  }
  std::fill(grant_seq_.begin(), grant_seq_.end(), kNoGrant);
  ops_.clear();
  free_ops_.clear();
  op_oob_seqs_.clear();
  gc_jobs_.clear();
  std::fill(gc_job_of_plane_.begin(), gc_job_of_plane_.end(), kNoJob);
  buffer_.clear();
  buffer_fifo_.clear();
  flush_barriers_.clear();
  // Requests still held by the admission scheduler vanish with the rest
  // of the volatile state (they are counted in interrupted_requests above
  // — arrived, never completed — like every admitted-but-unfinished one).
  sched_.clear();
  powered_off_ = true;
  return report;
}

void Ssd::power_on() {
  if (!powered_off_) {
    throw std::logic_error("ssd: power_on on a device that has power");
  }
  const SimTime mount_begin = now_;
  const ftl::RecoveryReport rec = ftl_.recover_after_power_loss();
  const Duration mount = modeled_mount_ns(rec);
  now_ += mount;

  auto& counters = metrics_.counters();
  counters.mount_time_ns += mount;
  counters.mount_scan_reads += rec.scanned_pages;
  counters.torn_pages_discarded += rec.torn_pages;
  counters.unknown_blocks_recovered += rec.unknown_blocks;
  if (tracer_) {
    telemetry::TraceEvent e;
    e.begin = mount_begin;
    e.end = now_;
    e.kind = telemetry::SpanKind::kMountScan;
    e.tenant = sim::kInternalTenant;
    e.detail = rec.scanned_pages;
    tracer_->record(e);
    tracer_->record_point(now_, telemetry::SpanKind::kRecovery,
                          sim::kInternalTenant, 0, 0, rec.recovered_pages);
  }

  powered_off_ = false;
  // Retired blocks that came back still holding winners: restart their
  // rescue migrations (the pre-crash rescue state was volatile).
  for (const auto& [plane, block] : rec.rescue_blocks) {
    start_rescue(plane, block);
  }
  if (util::kCheckedBuild) check_invariants();
  if (power_hook_) power_hook_();
}

Duration Ssd::modeled_mount_ns(const ftl::RecoveryReport& rec) const {
  // Execution units scan their planes' OOB areas sequentially and in
  // parallel with each other; unknown-block re-erases are charged to the
  // owning unit. Mount time is the slowest unit's total.
  const auto& g = options_.geometry;
  const std::uint64_t planes_per_unit =
      options_.multiplane_program ? 1 : g.planes_per_chip;
  const std::uint64_t pages_per_plane =
      static_cast<std::uint64_t>(g.blocks_per_plane) * g.pages_per_block;
  const Duration scan_ns =
      pages_per_plane * planes_per_unit * options_.timing.read_ns;
  Duration mount = 0;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    std::uint64_t reerases = 0;
    for (std::uint64_t p = 0; p < planes_per_unit; ++p) {
      reerases += rec.reerases_per_plane[u * planes_per_unit + p];
    }
    mount = std::max(mount, scan_ns + reerases * options_.timing.erase_ns);
  }
  return mount;
}

bool Ssd::maybe_fire_power_cut() {
  const sim::PowerModel& pm = options_.power;
  const bool take_arrival = arrival_next();
  if (pm.cut_at_arrival != ~std::uint64_t{0}) {
    // Fire just before the nth arrival is handled, at its arrival time.
    if (!(take_arrival && arrival_cursor_ >= pm.cut_at_arrival)) {
      return false;
    }
    now_ = std::max(now_, requests_[arrival_cursor_].arrival);
  } else {
    // Fire when the next executable step is at/past the scheduled time.
    // The run loop guarantees at least one of the two sources is ready.
    const SimTime next_time = take_arrival
                                  ? requests_[arrival_cursor_].arrival
                                  : events_.next_time();
    if (next_time < pm.cut_at_time) return false;
    now_ = std::max(now_, pm.cut_at_time);
  }
  cut_fired_ = true;
  power_off();
  if (pm.auto_recover) power_on();
  return true;
}

void Ssd::verify_recovery() const {
  // Independent recomputation of the recovery scan's winners, compared
  // against the live L2P map. Meaningful immediately after power_on(),
  // before any new program completes (later writes open an in-flight
  // window where the map legitimately leads the OOB).
  const ftl::OobStore& oob = ftl_.oob();
  if (!oob.enabled()) {
    throw std::logic_error("ssd: verify_recovery requires OOB metadata");
  }
  const ftl::MappingTable& map = ftl_.mapping();

  std::map<std::uint64_t, std::pair<std::uint64_t, sim::Ppn>> best;
  const std::uint64_t pages = options_.geometry.total_pages();
  for (sim::Ppn p = 0; p < pages; ++p) {
    if (oob.state(p) != ftl::OobState::kData) continue;
    const std::uint64_t seq = oob.seq(p);
    const auto [it, inserted] = best.try_emplace(oob.owner(p), seq, p);
    if (!inserted && seq > it->second.first) it->second = {seq, p};
  }

  // Every winner must be mapped at exactly its winning PPN...
  for (const auto& [key, win] : best) {
    const sim::Ppn mapped = map.lookup(ftl::OobStore::owner_tenant(key),
                                       ftl::OobStore::owner_lpn(key));
    SSDK_CHECK_MSG(
        mapped == win.second,
        "recovery: lpn " + std::to_string(ftl::OobStore::owner_lpn(key)) +
            " of tenant " +
            std::to_string(ftl::OobStore::owner_tenant(key)) +
            " maps to ppn " + std::to_string(mapped) +
            " instead of the surviving winner " +
            std::to_string(win.second) + " (seq " +
            std::to_string(win.first) + ")");
  }
  // ...and nothing else may be mapped: equal counts + the per-winner check
  // above give the bijection, which also proves no torn/failed/erased
  // page is ever served.
  std::uint64_t mapped_total = 0;
  for (std::size_t t = 0; t < map.tenant_table_count(); ++t) {
    mapped_total += map.mapped_count(static_cast<sim::TenantId>(t));
  }
  SSDK_CHECK_MSG(mapped_total == best.size(),
                 "recovery: " + std::to_string(mapped_total) +
                     " mapped pages != " + std::to_string(best.size()) +
                     " OOB winners — the map serves a page the scan never "
                     "recovered");
}

}  // namespace ssdk::ssd
