#include "ssd/ssd.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ssdk::ssd {

using sim::EventKind;
using sim::kNoOp;

void WriteBufferConfig::validate() const {
  for (const double watermark : {high_watermark, low_watermark}) {
    if (!(watermark >= 0.0) || !std::isfinite(watermark) ||
        !(watermark * static_cast<double>(capacity_pages) < 0x1p64)) {
      throw std::invalid_argument(
          "write_buffer: watermarks must be finite and >= 0, and a "
          "watermark times capacity_pages must fit a size_t");
    }
  }
}

namespace {

/// The page transfer time, once the configs whose floating-point fields
/// the device casts to integers have passed their checks.
Duration validated_page_xfer_ns(const SsdOptions& options) {
  options.timing.validate(options.geometry);
  options.write_buffer.validate();
  return options.timing.page_transfer_ns(options.geometry);
}

}  // namespace

Ssd::Ssd(SsdOptions options)
    : options_(std::move(options)),
      units_per_channel_(options_.multiplane_program
                             ? options_.geometry.planes_per_channel()
                             : options_.geometry.chips_per_channel),
      unit_shift_(std::has_single_bit(units_per_channel_)
                      ? std::countr_zero(units_per_channel_)
                      : -1),
      ftl_(options_.geometry, options_.ftl),
      channels_(options_.geometry.channels),
      units_(options_.multiplane_program
                 ? options_.geometry.total_planes()
                 : options_.geometry.total_chips()),
      grant_seq_(units_.size(), kNoGrant),
      channel_busy_ns_(options_.geometry.channels, 0),
      unit_busy_ns_(units_.size(), 0),
      gc_job_of_plane_(options_.geometry.total_planes(), kNoJob),
      sched_(options_.sched),
      page_xfer_ns_(validated_page_xfer_ns(options_)),
      fault_rng_(options_.faults.seed),
      faults_on_(options_.faults.enabled()) {
  options_.faults.validate();
  options_.power.validate();
  // SLO targets are construction-time config: they gate violation
  // counting only, never the schedule, and survive fork/restore because
  // both rebuild from the same options.
  for (const auto& share : options_.sched.shares) {
    if (share.slo_target_us > 0) {
      metrics_.set_slo_target_us(share.tenant, share.slo_target_us);
    }
  }
  // OOB metadata must record from the first program; recovery cannot
  // reconstruct pages written before the store was armed.
  if (options_.power.enabled) ftl_.enable_oob();
  if (options_.write_buffer.capacity_pages > 0) {
    buffer_.reserve(options_.write_buffer.capacity_pages);
    buffer_fifo_.reserve(2 * options_.write_buffer.capacity_pages);
  }
}

// --- op slab ----------------------------------------------------------------

Ssd::OpId Ssd::alloc_op() {
  OpId id;
  if (!free_ops_.empty()) {
    id = free_ops_.back();
    free_ops_.pop_back();
    ops_[id] = PageOp{};
  } else {
    if (ops_.size() >= kMaxOps) {
      throw std::length_error("ssd: op slab holds 2^32 - 1 ops already");
    }
    id = static_cast<OpId>(ops_.size());
    ops_.emplace_back();
  }
  if (ftl_.oob().enabled()) {
    if (id == op_oob_seqs_.size()) {
      op_oob_seqs_.push_back(0);
    } else {
      op_oob_seqs_[id] = 0;
    }
  }
  PageOp& op = ops_[id];
  op.in_use = true;
  op.enq_seq = next_enq_seq_++;
  return id;
}

void Ssd::free_op(OpId id) {
  assert(ops_[id].in_use);
  ops_[id].in_use = false;
  free_ops_.push_back(id);
}

// --- telemetry --------------------------------------------------------------

telemetry::OpClass Ssd::op_class(const PageOp& op) const {
  switch (op.kind) {
    case OpKind::kHostRead: return telemetry::OpClass::kHostRead;
    case OpKind::kHostWrite: return telemetry::OpClass::kHostWrite;
    case OpKind::kGcRead: return telemetry::OpClass::kGcRead;
    case OpKind::kGcWrite: return telemetry::OpClass::kGcWrite;
    case OpKind::kErase: return telemetry::OpClass::kErase;
    case OpKind::kFlushWrite: return telemetry::OpClass::kFlushWrite;
  }
  return telemetry::OpClass::kNone;
}

std::uint64_t Ssd::host_request_id(const PageOp& op) const {
  return op.request == kNoRequest32 ? telemetry::kNoRequestId
                                    : requests_[op.request].id;
}

void Ssd::trace_op_span(telemetry::SpanKind kind, SimTime begin, SimTime end,
                        const PageOp& op, std::uint64_t unit,
                        std::uint64_t detail) {
  telemetry::TraceEvent e;
  e.begin = begin;
  e.end = end;
  e.kind = kind;
  e.op = op_class(op);
  e.tenant = op.tenant;
  e.channel = channel_of_unit(unit);
  e.unit = static_cast<std::uint32_t>(unit);
  e.request_id = host_request_id(op);
  e.detail = detail;
  tracer_->record(e);
}

void Ssd::trace_wait(const PageOp& op, std::uint64_t unit) {
  if (now_ > op.dispatched_at) {
    trace_op_span(telemetry::SpanKind::kQueueWait, op.dispatched_at, now_,
                  op, unit);
  }
}

// --- ingestion ----------------------------------------------------------------

void Ssd::submit(std::span<const sim::IoRequest> requests) {
  // Geometric growth: a device fed in batches (a fleet epoch at a time)
  // must not re-copy its whole table for every batch.
  const std::size_t need = requests_.size() + requests.size();
  if (need > requests_.capacity()) {
    requests_.reserve(std::max(need, 2 * requests_.capacity()));
  }
  for (const auto& r : requests) submit(r);
}

void Ssd::submit(const sim::IoRequest& request) {
  if (requests_.size() >= kNoRequest32) {
    // Page ops name their request in 32 bits, kNoRequest32 meaning none.
    throw std::length_error("ssd: request table holds 2^32 - 1 requests");
  }
  if (request.page_count == 0) {
    throw std::invalid_argument("ssd: request with zero pages");
  }
  if (request.tenant == sim::kInternalTenant) {
    // GC traffic's id; the scheduler's lanes are indexed by tenant id.
    throw std::invalid_argument("ssd: request from the internal GC tenant");
  }
  if (request.arrival < last_submitted_arrival_) {
    throw std::invalid_argument("ssd: arrivals must be non-decreasing");
  }
  last_submitted_arrival_ = request.arrival;
  requests_.push_back(RequestState{request.id, request.lpn, request.arrival,
                                   request.tenant, request.page_count,
                                   request.page_count, request.type});
}

void Ssd::run_to_completion() { run_until_arrival(kNoRequest); }

void Ssd::run_until_arrival(std::uint64_t request_index) {
  if (powered_off_) {
    throw std::logic_error(
        "ssd: device is powered off; call power_on() before running");
  }
  const bool cut_armed = options_.power.cut_scheduled();
  // A device forked (or restored) from a cut inside the arrival hook
  // holds an enqueued-but-unadmitted request; admit it now, at the same
  // simulated instant the source device did after its hook returned.
  pump_scheduler();
  while (arrival_cursor_ < requests_.size() || !events_.empty()) {
    if (cut_armed && !cut_fired_ && maybe_fire_power_cut()) {
      // auto_recover resumed service already; otherwise the run stops
      // dead at the cut and the caller drives power_on().
      if (powered_off_) return;
      continue;
    }
    if (arrival_next()) {
      // Stop *before* the target arrival is handled (and before now_
      // advances to it): everything ordered ahead of it has run, nothing
      // at or after it has — the exact cut a fork or snapshot wants.
      if (arrival_cursor_ >= request_index) return;
      now_ = std::max(now_, requests_[arrival_cursor_].arrival);
      handle_arrival(arrival_cursor_++);
      maybe_audit();
    } else {
      const sim::Event e = events_.pop();
      now_ = e.time;
      switch (e.kind) {
        case EventKind::kArrival:  // refused at load, never scheduled
          break;
        case EventKind::kFlashDone:
          handle_flash_done(e.a, static_cast<OpId>(e.b));
          break;
        case EventKind::kBusFree:
          handle_bus_free(static_cast<std::uint32_t>(e.a), e.b);
          break;
        case EventKind::kBufferDone:
          handle_buffer_done(e.a, e.b);
          break;
        case EventKind::kWriteDone:
          // Exactly the old BusFree(kNoOp)-then-FlashDone pair, back to
          // back; see grant_write.
          handle_write_done(e.a, static_cast<OpId>(e.b));
          break;
      }
    }
  }
}

// --- arrival / dispatch -------------------------------------------------------

void Ssd::handle_arrival(std::uint64_t request_index) {
  RequestState& rs = requests_[request_index];
  // Enqueue before the arrival hook: a fork() taken inside the hook (the
  // keeper's what-if trials) must copy a scheduler that owns this
  // request, or the copy would never service it. Admission still
  // happens after the hook at the same instant, so a strategy switch
  // made by the hook governs this request's placement either way.
  sched_.enqueue(request_index, rs.tenant, rs.page_count, now_);
  if (arrival_hook_) arrival_hook_(rs.request());
  pump_scheduler();
}

void Ssd::pump_scheduler() {
  // Admissions can complete synchronously (trims, empty flushes), and
  // every completion pumps — the guard collapses those nested pumps into
  // the outer drain loop.
  if (sched_pumping_) return;
  sched_pumping_ = true;
  // RAII reset: a DeviceFullError unwinding out of admit_request must not
  // leave the guard stuck (the runner summarizes the partial run).
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{sched_pumping_};
  sched::Grant grant;
  while (sched_.pick(grant)) {
    if (tracer_ && now_ > grant.enqueued_at) {
      // Admission wait span. Zero-length waits are skipped (like
      // kQueueWait), which keeps the schedule-neutral FIFO default's
      // traces byte-identical to the pre-scheduler refs.
      telemetry::TraceEvent e;
      e.begin = grant.enqueued_at;
      e.end = now_;
      e.kind = telemetry::SpanKind::kSchedWait;
      e.tenant = grant.tenant;
      e.request_id = requests_[grant.request_index].id;
      e.detail = grant.decision_seq;
      tracer_->record(e);
    }
    admit_request(grant.request_index);
  }
}

void Ssd::admit_request(std::uint64_t request_index) {
  RequestState& rs = requests_[request_index];
  if (rs.type == sim::OpType::kFlush) {
    // Whole-request durability barrier, not a per-page op.
    handle_flush(request_index);
    return;
  }
  for (std::uint32_t i = 0; i < rs.page_count; ++i) {
    const std::uint64_t lpn = rs.lpn + i;
    const OpId op_id = alloc_op();
    PageOp& op = ops_[op_id];
    op.request = static_cast<std::uint32_t>(request_index);
    op.tenant = rs.tenant;
    if (rs.type == sim::OpType::kTrim) {
      // Metadata-only: no flash op, completes instantly. A dirty buffered
      // copy must be dropped too, or a later flush would resurrect it.
      free_op(op_id);
      if (buffer_.erase(buffer_key(rs.tenant, lpn)) > 0) {
        // The key's FIFO entry is now stale; bound the accumulation.
        maybe_compact_buffer_fifo();
      }
      ftl_.trim(rs.tenant, lpn);
      complete_request_page(request_index);
    } else if (rs.type == sim::OpType::kRead && buffer_holds(rs.tenant, lpn)) {
      // Read hit on a dirty buffered page: served from DRAM.
      ++buffer_hits_;
      serve_from_buffer(request_index, op_id, lpn);
    } else if (rs.type == sim::OpType::kRead) {
      op.kind = OpKind::kHostRead;
      op.lpn = lpn;
      op.ppn = static_cast<sim::Ppn32>(ftl_.translate_read(rs.tenant, lpn));
      dispatch_read(op_id);
    } else if (buffer_write(rs.tenant, lpn)) {
      // Acked at DRAM latency without touching flash: the completion will
      // be volatile, and a power cut before the eviction lands loses this
      // page (counted per tenant at power_off).
      ++tally_slot(request_index).volatile_pages;
      serve_from_buffer(request_index, op_id, lpn);
      maybe_flush_buffer();
    } else {
      op.kind = OpKind::kHostWrite;
      op.lpn = lpn;
      op.ppn = static_cast<sim::Ppn32>(
          ftl_.allocate_write(rs.tenant, lpn, load_view_));
      // The OOB seq is drawn in L2P-update order (here, at placement) but
      // recorded on flash only when the program completes — the window in
      // between is exactly what a power cut tears.
      if (ftl_.oob().enabled()) op_oob_seqs_[op_id] = ftl_.oob().fresh_seq();
      dispatch_write(op_id);
      maybe_start_gc(plane_of(op));
    }
  }
}

void Ssd::serve_from_buffer(std::uint64_t request_index, OpId op_id,
                            std::uint64_t lpn) {
  free_op(op_id);
  const RequestState& rs = requests_[request_index];
  const SimTime done = now_ + options_.write_buffer.dram_ns;
  if (tracer_) {
    telemetry::TraceEvent e;
    e.begin = now_;
    e.end = done;
    e.kind = telemetry::SpanKind::kBufferHit;
    e.op = rs.type == sim::OpType::kRead ? telemetry::OpClass::kHostRead
                                         : telemetry::OpClass::kHostWrite;
    e.tenant = rs.tenant;
    e.request_id = rs.id;
    e.detail = lpn;
    tracer_->record(e);
  }
  events_.push(done, EventKind::kBufferDone, request_index, 1);
}

// --- write buffer ---------------------------------------------------------

bool Ssd::buffer_write(sim::TenantId tenant, std::uint64_t lpn) {
  const auto& cfg = options_.write_buffer;
  if (cfg.capacity_pages == 0) return false;
  const std::uint64_t key = buffer_key(tenant, lpn);
  const auto it = buffer_.find(key);
  if (it != buffer_.end()) {
    // Overwrite of a dirty page is absorbed in place.
    ++buffer_hits_;
    return true;
  }
  if (buffer_.size() >= cfg.capacity_pages) return false;
  buffer_.emplace(key, false);
  buffer_fifo_.push_back(key);
  return true;
}

bool Ssd::buffer_holds(sim::TenantId tenant, std::uint64_t lpn) const {
  // The emptiness probe covers the buffer-disabled case too, and skips
  // the key hash on every read of an unbuffered (or drained) device.
  if (buffer_.empty()) return false;
  return buffer_.contains(buffer_key(tenant, lpn));
}

void Ssd::maybe_compact_buffer_fifo() {
  // Every live key has exactly one *consumable* FIFO occurrence, so the
  // stale surplus is size(fifo) - size(buffer). Compact once stale
  // entries outnumber live ones (with a floor so tiny buffers never
  // bother) — amortized O(1) per trim, and the FIFO stays <= 2x occupancy.
  const std::size_t fifo = buffer_fifo_.size();
  if (fifo >= 64 && fifo > 2 * buffer_.size()) compact_buffer_fifo();
}

void Ssd::compact_buffer_fifo() {
  // Keep only the first occurrence of each live key, in order — exactly
  // the entries lazy eviction would consume — by cycling the ring once.
  // The seen-marker lives in the map values, so compaction allocates
  // nothing.
  const std::size_t n = buffer_fifo_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = buffer_fifo_.front();
    buffer_fifo_.pop_front();
    const auto it = buffer_.find(key);
    if (it == buffer_.end() || it->second) continue;
    it->second = true;
    buffer_fifo_.push_back(key);
  }
  // ssdk-lint: allow(unordered-iter): clears every marker; per-entry and
  // idempotent, so hash order cannot affect the outcome.
  for (auto& [key, kept] : buffer_) kept = false;
}

void Ssd::maybe_flush_buffer() {
  const auto& cfg = options_.write_buffer;
  if (cfg.capacity_pages == 0) return;
  const auto high = static_cast<std::size_t>(
      cfg.high_watermark * static_cast<double>(cfg.capacity_pages));
  if (buffer_.size() <= high) return;
  const auto low = static_cast<std::size_t>(
      cfg.low_watermark * static_cast<double>(cfg.capacity_pages));
  while (buffer_.size() > low && !buffer_fifo_.empty()) {
    const std::uint64_t key = buffer_fifo_.front();
    buffer_fifo_.pop_front();
    if (!buffer_.contains(key)) continue;  // stale entry
    buffer_.erase(key);
    flush_one(static_cast<sim::TenantId>(key >> 40),
              key & ((1ULL << 40) - 1));
  }
}

void Ssd::flush_one(sim::TenantId tenant, std::uint64_t lpn) {
  const OpId op_id = alloc_op();
  PageOp& op = ops_[op_id];
  op.kind = OpKind::kFlushWrite;
  op.tenant = tenant;
  op.lpn = lpn;
  op.ppn =
      static_cast<sim::Ppn32>(ftl_.allocate_write(tenant, lpn, load_view_));
  if (ftl_.oob().enabled()) op_oob_seqs_[op_id] = ftl_.oob().fresh_seq();
  dispatch_write(op_id);
  maybe_start_gc(plane_of(op));
}

void Ssd::flush_write_buffer() {
  while (!buffer_fifo_.empty()) {
    const std::uint64_t key = buffer_fifo_.front();
    buffer_fifo_.pop_front();
    if (!buffer_.contains(key)) continue;
    buffer_.erase(key);
    flush_one(static_cast<sim::TenantId>(key >> 40),
              key & ((1ULL << 40) - 1));
  }
}

void Ssd::handle_flush(std::uint64_t request_index) {
  // Durability barrier: evict every dirty buffered page to flash, then
  // hold the request until every flush-triggered program enqueued before
  // the fence — including evictions already in flight from watermark
  // flushing — has settled. Host writes racing past the barrier are NOT
  // waited on (fsync semantics: only previously acked data is fenced).
  flush_write_buffer();
  const std::uint64_t threshold = next_enq_seq_;
  std::uint32_t remaining = 0;
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    const PageOp& op = ops_[id];
    if (op.in_use && op.kind == OpKind::kFlushWrite &&
        op.enq_seq < threshold) {
      ++remaining;
    }
  }
  if (remaining == 0) {
    // Nothing volatile and nothing in flight: completes instantly, like a
    // no-op trim.
    complete_request_page(request_index);
    return;
  }
  flush_barriers_.push_back(FlushBarrier{request_index, threshold, remaining});
}

void Ssd::settle_flush_barriers(std::uint64_t enq_seq) {
  if (flush_barriers_.empty()) return;
  for (std::size_t i = 0; i < flush_barriers_.size();) {
    FlushBarrier& fb = flush_barriers_[i];
    if (enq_seq < fb.threshold && --fb.remaining == 0) {
      const std::uint64_t request_index = fb.request;
      flush_barriers_.erase(flush_barriers_.begin() +
                            static_cast<std::ptrdiff_t>(i));
      complete_request_page(request_index);
    } else {
      ++i;
    }
  }
}

void Ssd::handle_buffer_done(std::uint64_t request_index,
                             std::uint64_t pages) {
  for (std::uint64_t i = 0; i < pages; ++i) {
    complete_request_page(request_index);
  }
}

void Ssd::dispatch_read(OpId op_id) {
  PageOp& op = ops_[op_id];
  op.dispatched_at = now_;
  const std::uint64_t unit = unit_of(op);
  ++metrics_.counters().page_ops;
  if (!units_[unit].busy) {
    start_array_read(unit, op_id);
  } else {
    metrics_.count_conflict();
    units_[unit].read_wait.push_back(op_id);
  }
}

void Ssd::dispatch_write(OpId op_id) {
  PageOp& op = ops_[op_id];
  op.dispatched_at = now_;
  const sim::PhysAddr addr = addr_of(op);
  const std::uint64_t unit = unit_of(addr);
  ++metrics_.counters().page_ops;
  if (channels_[addr.channel].bus_busy || units_[unit].busy) {
    metrics_.count_conflict();
  }
  UnitState& u = units_[unit];
  u.write_q.push_back(op_id);
  if (u.write_q.size() == 1 && !u.busy) grant_seq_[unit] = op.enq_seq;
  arbitrate(addr.channel);
}

void Ssd::dispatch_erase(OpId op_id) {
  const std::uint64_t unit = unit_of(ops_[op_id]);
  ++metrics_.counters().page_ops;
  if (!units_[unit].busy) {
    start_erase(unit, op_id);
  } else {
    metrics_.count_conflict();
    units_[unit].erase_wait.push_back(op_id);
  }
}

void Ssd::start_array_read(std::uint64_t unit, OpId op_id) {
  metrics_.counters().read_wait_ns += now_ - ops_[op_id].dispatched_at;
  ++metrics_.counters().read_ops_started;
  if (tracer_) {
    trace_wait(ops_[op_id], unit);
    trace_op_span(telemetry::SpanKind::kFlashRead, now_,
                  now_ + options_.timing.read_ns, ops_[op_id], unit);
  }
  UnitState& u = units_[unit];
  assert(!u.busy);
  u.busy = true;
  grant_seq_[unit] = kNoGrant;
  u.busy_until = now_ + options_.timing.read_ns;
  metrics_.counters().chip_busy_ns += options_.timing.read_ns;
  unit_busy_ns_[unit] += options_.timing.read_ns;
  events_.push(u.busy_until, EventKind::kFlashDone, unit, op_id);
}

void Ssd::start_erase(std::uint64_t unit, OpId op_id) {
  if (tracer_) {
    trace_op_span(telemetry::SpanKind::kFlashErase, now_,
                  now_ + options_.timing.erase_ns, ops_[op_id], unit,
                  addr_of(ops_[op_id]).block);
  }
  UnitState& u = units_[unit];
  assert(!u.busy);
  u.busy = true;
  grant_seq_[unit] = kNoGrant;
  u.busy_until = now_ + options_.timing.erase_ns;
  metrics_.counters().chip_busy_ns += options_.timing.erase_ns;
  unit_busy_ns_[unit] += options_.timing.erase_ns;
  events_.push(u.busy_until, EventKind::kFlashDone, unit, op_id);
}

bool Ssd::unit_next(std::uint64_t unit) {
  UnitState& u = units_[unit];
  if (u.busy) return false;
  if (!u.read_wait.empty()) {
    const OpId op_id = u.read_wait.front();
    u.read_wait.pop_front();
    start_array_read(unit, op_id);
    return false;
  }
  if (!u.erase_wait.empty()) {
    const OpId op_id = u.erase_wait.front();
    u.erase_wait.pop_front();
    start_erase(unit, op_id);
    return false;
  }
  // A queued write may now be grantable; let the channel decide.
  arbitrate(channel_of_unit(unit));
  return true;
}

void Ssd::arbitrate(std::uint32_t channel) {
  ChannelState& ch = channels_[channel];
  if (ch.bus_busy) return;
  const bool read_ready = !ch.read_q.empty();
  // Under read priority a ready read wins outright, so the write scan is
  // skipped entirely.
  if (read_ready && options_.read_priority) {
    grant_read_transfer(channel);
    return;
  }
  const std::uint64_t write_unit = oldest_grantable_write(channel);
  if (write_unit == kNoGrant) {
    if (read_ready) grant_read_transfer(channel);
    return;
  }
  if (read_ready) {
    // Fair mode: alternate between classes when both are ready.
    const bool grant_read = ch.rr_toggle;
    ch.rr_toggle = !ch.rr_toggle;
    if (grant_read) {
      grant_read_transfer(channel);
      return;
    }
  }
  grant_write(channel, write_unit);
}

void Ssd::grant_read_transfer(std::uint32_t channel) {
  ChannelState& ch = channels_[channel];
  assert(!ch.bus_busy && !ch.read_q.empty());
  const OpId op_id = ch.read_q.front();
  ch.read_q.pop_front();
  // The unit is held while its page register is shifted out.
  const std::uint64_t held_unit = unit_of(ops_[op_id]);
  if (tracer_) {
    trace_op_span(telemetry::SpanKind::kBusTransfer, now_,
                  now_ + page_xfer_ns_, ops_[op_id], held_unit);
  }
  ch.bus_busy = true;
  ch.bus_free_at = now_ + page_xfer_ns_;
  metrics_.counters().bus_busy_ns += page_xfer_ns_;
  channel_busy_ns_[channel] += page_xfer_ns_;
  UnitState& u = units_[held_unit];
  assert(u.busy);
  u.busy_until = ch.bus_free_at;
  metrics_.counters().chip_busy_ns += page_xfer_ns_;
  unit_busy_ns_[held_unit] += page_xfer_ns_;
  events_.push(ch.bus_free_at, EventKind::kBusFree, channel, op_id);
}

std::uint64_t Ssd::oldest_grantable_write(std::uint32_t channel) const {
  // grant_seq_ is kNoGrant for busy units and empty queues, so they lose
  // every comparison without touching their UnitState at all — the scan
  // reads one dense cache line per channel.
  const std::uint64_t base = first_unit(channel);
  std::uint64_t best_unit = kNoGrant;
  std::uint64_t best_seq = kNoGrant;
  for (std::uint64_t i = 0; i < units_per_channel(); ++i) {
    const std::uint64_t s = grant_seq_[base + i];
    if (s < best_seq) {
      best_seq = s;
      best_unit = base + i;
    }
  }
  return best_unit;
}

void Ssd::grant_write(std::uint32_t channel, std::uint64_t unit) {
  ChannelState& ch = channels_[channel];
  assert(!ch.bus_busy);
  UnitState& u = units_[unit];
  const OpId op_id = u.write_q.front();
  u.write_q.pop_front();
  grant_seq_[unit] = kNoGrant;  // the unit goes busy below
  metrics_.counters().write_wait_ns += now_ - ops_[op_id].dispatched_at;
  ++metrics_.counters().write_ops_started;

  const Duration service = page_xfer_ns_ + options_.timing.program_ns;
  // Basic command set: the bus is occupied until the program finishes;
  // pipelined mode releases it after the data transfer.
  const Duration bus_hold =
      options_.pipelined_writes ? page_xfer_ns_ : service;
  if (tracer_) {
    trace_wait(ops_[op_id], unit);
    trace_op_span(telemetry::SpanKind::kBusTransfer, now_, now_ + bus_hold,
                  ops_[op_id], unit);
    trace_op_span(telemetry::SpanKind::kFlashProgram, now_, now_ + service,
                  ops_[op_id], unit);
  }
  ch.bus_busy = true;
  ch.bus_free_at = now_ + bus_hold;
  metrics_.counters().bus_busy_ns += bus_hold;
  channel_busy_ns_[channel] += bus_hold;
  // Basic command set: bus release and program completion coincide
  // (bus_hold == service), and the two events would carry adjacent seqs,
  // so no third event can ever pop between them — fold them into one
  // kWriteDone and halve this op's heap traffic. Pipelined mode keeps
  // the separate events (the bus frees mid-program).
  const bool pipelined = options_.pipelined_writes;
  if (pipelined) {
    events_.push(ch.bus_free_at, EventKind::kBusFree, channel, kNoOp);
  }

  u.busy = true;
  u.busy_until = now_ + service;
  metrics_.counters().chip_busy_ns += service;
  unit_busy_ns_[unit] += service;
  events_.push(u.busy_until,
               pipelined ? EventKind::kFlashDone : EventKind::kWriteDone,
               unit, op_id);
}

// --- event handlers -------------------------------------------------------------

void Ssd::handle_write_done(std::uint64_t unit, OpId op_id) {
  const std::uint32_t channel = channel_of_unit(unit);
  channels_[channel].bus_busy = false;
  arbitrate(channel);
  handle_flash_done(unit, op_id);
}

void Ssd::handle_flash_done(std::uint64_t unit, OpId op_id) {
  PageOp& op = ops_[op_id];
  switch (op.kind) {
    case OpKind::kHostRead:
    case OpKind::kGcRead: {
      // Array read (or retry re-sense) done; data sits in the page
      // register. The unit stays held until the bus moves the data out.
      const std::uint32_t channel = channel_of_unit(unit);
      channels_[channel].read_q.push_back(op_id);
      arbitrate(channel);
      break;
    }
    case OpKind::kHostWrite:
    case OpKind::kFlushWrite:
    case OpKind::kGcWrite: {
      units_[unit].busy = false;
      grant_seq_[unit] = grant_key(unit);
      bool fault = false;
      bool program_failed = false;
      if (faults_on_) {
        program_failed = draw_fault(options_.faults.program_fail);
        // A successful program into a block that was retired while this
        // write was in flight must not leave data behind either.
        fault = program_failed ||
                ftl_.blocks().block_state(plane_of(op), addr_of(op).block) ==
                    ftl::BlockState::kRetired;
      }
      // The physical program finished (well or badly): its OOB is now
      // determined, even when the logical outcome below is a re-place.
      if (ftl_.oob().enabled()) record_program_oob(op_id, program_failed);
      if (fault) {
        handle_write_fault(op_id, program_failed);
      } else if (op.kind == OpKind::kHostWrite) {
        finish_host_op(op_id);
      } else if (op.kind == OpKind::kFlushWrite) {
        const std::uint64_t enq_seq = op.enq_seq;
        free_op(op_id);
        settle_flush_barriers(enq_seq);
      } else {
        on_gc_write_done(op_id);
      }
      unit_next(unit);
      break;
    }
    case OpKind::kErase:
      units_[unit].busy = false;
      grant_seq_[unit] = grant_key(unit);
      on_erase_done(op_id);
      unit_next(unit);
      break;
  }
}

void Ssd::handle_bus_free(std::uint32_t channel, std::uint64_t op_id) {
  channels_[channel].bus_busy = false;
  if (op_id != kNoOp) {
    // A read transfer finished: release the unit, run the ECC check, and
    // complete (or retry) the op.
    const auto id = static_cast<OpId>(op_id);
    PageOp& op = ops_[id];
    const std::uint64_t unit = unit_of(op);
    units_[unit].busy = false;
    grant_seq_[unit] = grant_key(unit);
    // The unit lives on `channel`, so when unit_next falls through to
    // arbitration it already covers this channel — arbitrating again
    // would re-scan the queues only to no-op.
    bool arbitrated = false;
    if (read_ecc_failed(op)) {
      if (op.attempts < options_.faults.max_read_retries) {
        start_read_retry(unit, id);  // unit is re-occupied
      } else {
        handle_uncorrectable_read(id);
        arbitrated = unit_next(unit);
      }
    } else {
      if (op.kind == OpKind::kHostRead) {
        finish_host_op(id);
      } else {
        on_gc_read_done(id);
      }
      arbitrated = unit_next(unit);
    }
    if (arbitrated) return;
  }
  arbitrate(channel);
}

// --- OOB metadata (power model) ---------------------------------------------

void Ssd::record_program_oob(OpId op_id, bool program_failed) {
  const PageOp& op = ops_[op_id];
  ftl::OobStore& oob = ftl_.oob();
  if (program_failed) {
    // The program corrupted the page; nothing readable landed.
    oob.record_failed(op.ppn);
  } else if (op.kind == OpKind::kGcWrite) {
    if (oob.state(op.gc_src) == ftl::OobState::kData) {
      // A migrated page is the same logical version: copy src OOB verbatim
      // (same seq — recovery breaks the tie toward the lower PPN, so a
      // crash between copy and erase neither loses nor double-counts it).
      oob.record_migration(op.gc_src, op.ppn);
    } else {
      record_resolved_migration_oob(op);
    }
  } else {
    oob.record_program(op.ppn, op.tenant, op.lpn, op_oob_seqs_[op_id]);
  }
}

void Ssd::record_resolved_migration_oob(const PageOp& op) {
  // Rare: the migration source's own program is still in flight — a full
  // (or freshly retired) victim can hold allocated-but-unprogrammed pages,
  // and the copy can land first. The copied version is still well-defined,
  // so take its identity from the pending program itself; marking the copy
  // unreadable instead would lose an acked write whose source copy gets
  // erased with the victim before a cut.
  ftl::OobStore& oob = ftl_.oob();
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    const PageOp& other = ops_[id];
    if (!other.in_use || other.ppn != op.gc_src) continue;
    if (other.kind == OpKind::kHostWrite ||
        other.kind == OpKind::kFlushWrite) {
      oob.record_program(op.ppn, other.tenant, other.lpn, op_oob_seqs_[id]);
      return;
    }
    if (other.kind == OpKind::kGcWrite &&
        oob.state(other.gc_src) == ftl::OobState::kData) {
      oob.record_migration(other.gc_src, op.ppn);
      return;
    }
  }
  // No pending program resolves the version (torn or failed source): the
  // copy carried garbage — consumed, no readable OOB.
  oob.record_failed(op.ppn);
}

// --- fault injection --------------------------------------------------------

bool Ssd::draw_fault(double p) {
  if (p <= 0.0) return false;
  return fault_rng_.bernoulli(p);
}

bool Ssd::read_ecc_failed(const PageOp& op) {
  if (!faults_on_) return false;
  return draw_fault(options_.faults.read_fail_prob(
      ftl_.blocks().erase_count(plane_of(op), addr_of(op).block)));
}

void Ssd::start_read_retry(std::uint64_t unit, OpId op_id) {
  PageOp& op = ops_[op_id];
  ++op.attempts;
  const Duration sense = options_.timing.read_retry_ns(op.attempts);
  // The retry will re-occupy the unit for the sense and the bus for
  // another transfer-out; both are attributed as retry-induced wait.
  metrics_.record_read_retry(op.tenant, sense + page_xfer_ns_);
  if (tracer_) {
    trace_op_span(telemetry::SpanKind::kRetrySense, now_, now_ + sense, op,
                  unit, op.attempts);
  }
  UnitState& u = units_[unit];
  assert(!u.busy);
  u.busy = true;
  grant_seq_[unit] = kNoGrant;
  u.busy_until = now_ + sense;
  metrics_.counters().chip_busy_ns += sense;
  unit_busy_ns_[unit] += sense;
  events_.push(u.busy_until, EventKind::kFlashDone, unit, op_id);
}

void Ssd::handle_uncorrectable_read(OpId op_id) {
  PageOp& op = ops_[op_id];
  metrics_.record_uncorrectable_read(op.tenant);
  if (op.kind == OpKind::kHostRead) {
    const std::uint64_t request_index = op.request;
    free_op(op_id);
    complete_request_page(request_index, /*failed=*/true);
    return;
  }
  // A migration source that cannot be read is lost data: drop it so the
  // victim block still drains to zero valid pages.
  ++metrics_.counters().lost_pages;
  if (ftl_.oob().enabled() && ftl_.blocks().is_valid(op.ppn)) {
    // The crash-fuzz oracle must not blame recovery for data the media
    // itself destroyed — remember which durable key just died.
    const ftl::PageOwner owner = ftl_.blocks().owner(op.ppn);
    media_lost_keys_.push_back(
        ftl::OobStore::pack_owner(owner.tenant, owner.lpn));
  }
  ftl_.drop_lost_page(op.ppn);
  const std::uint32_t job_index = op.gc_job;
  free_op(op_id);
  gc_settle(job_index);
}

void Ssd::handle_write_fault(OpId op_id, bool program_failed) {
  // Work from a copy: the branches below re-place the op in its slab
  // record, while the undo and retirement steps need the failed placement.
  const PageOp snap = ops_[op_id];
  const sim::PhysAddr failed_at = addr_of(snap);
  const std::uint64_t plane = options_.geometry.plane_id(failed_at);
  const std::uint32_t block = failed_at.block;

  // Undo the bad placement first so a retirement rescue below never
  // snapshots the failed page as rescuable. (GC writes install their
  // mapping only at complete_migration, so there is nothing to undo.)
  bool rewrite = true;
  if (snap.kind != OpKind::kGcWrite) {
    rewrite = ftl_.discard_failed_program(snap.tenant, snap.lpn, snap.ppn);
  }

  if (program_failed) {
    metrics_.record_program_retry(snap.tenant);
    const auto fails = ftl_.record_program_fail(plane, block);
    if (fails >= options_.faults.program_fails_to_retire &&
        ftl_.blocks().block_state(plane, block) !=
            ftl::BlockState::kRetired) {
      retire_and_rescue(plane, block);
    }
  }

  if (snap.kind == OpKind::kGcWrite) {
    ops_[op_id].ppn =
        static_cast<sim::Ppn32>(migration_target(gc_jobs_[snap.gc_job]));
    dispatch_write(op_id);
    return;
  }
  if (!rewrite) {
    // The LPN was overwritten while this program was in flight; the newer
    // write carries the data, so the failed op just completes.
    if (snap.kind == OpKind::kHostWrite) {
      finish_host_op(op_id);
    } else {
      free_op(op_id);
      settle_flush_barriers(snap.enq_seq);
    }
    return;
  }
  PageOp& op = ops_[op_id];
  op.ppn = static_cast<sim::Ppn32>(
      ftl_.rewrite_page(snap.tenant, snap.lpn, failed_at));
  // The re-place re-installed the mapping: a newer version as far as the
  // OOB is concerned, so it gets a fresh sequence number.
  if (ftl_.oob().enabled()) op_oob_seqs_[op_id] = ftl_.oob().fresh_seq();
  dispatch_write(op_id);
  maybe_start_gc(plane_of(op));
}

sim::Ppn Ssd::migration_target(const GcJob& job) {
  sim::Ppn dst = job.rescue ? ftl_.allocate_rescue(job.plane_id)
                            : ftl_.allocate_migration(job.plane_id);
  if (dst == sim::kInvalidPpn && !job.rescue && faults_on_) {
    // Retirement can eat a plane's GC headroom out from under an episode;
    // losing plane locality beats aborting the replay.
    dst = ftl_.allocate_rescue(job.plane_id);
  }
  if (dst == sim::kInvalidPpn) {
    if (faults_on_) throw ftl::DeviceFullError();
    throw std::logic_error(
        "ssd: GC cannot allocate a migration target; raise "
        "gc_trigger_free_blocks");
  }
  return dst;
}

void Ssd::retire_and_rescue(std::uint64_t plane_id, std::uint32_t block) {
  ftl_.retire_block(plane_id, block);
  ++metrics_.counters().retired_blocks;
  start_rescue(plane_id, block);
}

void Ssd::start_rescue(std::uint64_t plane_id, std::uint32_t block) {
  const std::uint32_t job_index = acquire_gc_job();
  GcJob& job = gc_jobs_[job_index];
  job = GcJob{};
  job.plane_id = plane_id;
  job.active = true;
  job.rescue = true;
  start_round_on_victim(job_index, block);
}

// --- completions ------------------------------------------------------------------

void Ssd::finish_host_op(OpId op_id) {
  const std::uint64_t request_index = ops_[op_id].request;
  free_op(op_id);
  complete_request_page(request_index);
}

void Ssd::complete_request_page(std::uint64_t request_index, bool failed) {
  RequestState& rs = requests_[request_index];
  assert(rs.remaining > 0);
  if (failed) ++tally_slot(request_index).failed;
  if (--rs.remaining == 0) {
    const RequestTally tallied = tally(request_index);
    sim::Completion c;
    c.request_id = rs.id;
    c.tenant = rs.tenant;
    c.type = rs.type;
    c.arrival = rs.arrival;
    c.finish = now_;
    c.status = tallied.failed ? sim::IoStatus::kUncorrectable
                              : sim::IoStatus::kOk;
    c.failed_pages = tallied.failed;
    c.volatile_pages = tallied.volatile_pages;
    metrics_.record(c);
    if (tracer_) {
      telemetry::TraceEvent e;
      e.begin = rs.arrival;
      e.end = now_;
      e.kind = telemetry::SpanKind::kRequest;
      e.op = rs.type == sim::OpType::kRead    ? telemetry::OpClass::kHostRead
             : rs.type == sim::OpType::kTrim  ? telemetry::OpClass::kHostTrim
             : rs.type == sim::OpType::kFlush ? telemetry::OpClass::kHostFlush
                                              : telemetry::OpClass::kHostWrite;
      e.tenant = rs.tenant;
      e.request_id = rs.id;
      e.detail = tallied.failed;
      tracer_->record(e);
    }
    if (completion_hook_) completion_hook_(c);
    // The finished request leaves the admission window; grant whatever
    // the policy lines up next (no-op while this completion happened
    // inside an admission — the outer pump continues the drain).
    sched_.on_complete(rs.tenant);
    pump_scheduler();
  }
}

void Ssd::on_gc_read_done(OpId op_id) {
  PageOp& op = ops_[op_id];
  const std::uint32_t job_index = op.gc_job;
  GcJob& job = gc_jobs_[job_index];
  const sim::Ppn32 src = op.ppn;
  free_op(op_id);

  const sim::Ppn dst = migration_target(job);
  const OpId write_id = alloc_op();
  PageOp& w = ops_[write_id];
  w.kind = OpKind::kGcWrite;
  w.tenant = sim::kInternalTenant;
  w.ppn = static_cast<sim::Ppn32>(dst);
  w.gc_src = src;
  w.gc_job = job_index;
  ++(job.rescue ? metrics_.counters().rescue_migrations
                : metrics_.counters().gc_migrations);
  dispatch_write(write_id);
}

void Ssd::on_gc_write_done(OpId op_id) {
  PageOp& op = ops_[op_id];
  ftl_.complete_migration(op.gc_src, op.ppn);
  const std::uint32_t job_index = op.gc_job;
  free_op(op_id);
  gc_settle(job_index);
}

void Ssd::gc_settle(std::uint32_t job_index) {
  GcJob& job = gc_jobs_[job_index];
  assert(job.outstanding > 0);
  if (--job.outstanding > 0) return;
  if (job.rescue) {
    // Stragglers (host writes in flight when the block was retired) may
    // have been redirected after our snapshot; re-scan until the retired
    // block is truly empty. Rescues never erase their victim.
    start_round_on_victim(job_index, job.victim);
    return;
  }
  if (ftl_.blocks().block_state(job.plane_id, job.victim) ==
      ftl::BlockState::kRetired) {
    // A late program failure retired the victim mid-episode (its own
    // rescue drained it); there is nothing left to erase.
    finish_gc_episode(job_index);
    return;
  }
  // All survivors moved; the victim is now fully invalid.
  erase_victim(job_index);
}

void Ssd::erase_victim(std::uint32_t job_index) {
  const GcJob& job = gc_jobs_[job_index];
  const auto& g = options_.geometry;
  const OpId erase_id = alloc_op();
  PageOp& e = ops_[erase_id];
  e.kind = OpKind::kErase;
  e.tenant = sim::kInternalTenant;
  e.ppn = static_cast<sim::Ppn32>(
      (job.plane_id * g.blocks_per_plane + job.victim) * g.pages_per_block);
  e.gc_job = job_index;
  dispatch_erase(erase_id);
}

void Ssd::on_erase_done(OpId op_id) {
  PageOp& op = ops_[op_id];
  const std::uint32_t job_index = op.gc_job;
  GcJob& job = gc_jobs_[job_index];
  const std::uint64_t plane = job.plane_id;

  if (faults_on_ && ftl_.blocks().block_state(plane, job.victim) ==
                        ftl::BlockState::kRetired) {
    // Retired while the erase was queued or in flight; drop the erase.
    free_op(op_id);
    finish_gc_episode(job_index);
    return;
  }

  if (faults_on_ && draw_fault(options_.faults.erase_fail)) {
    ++metrics_.counters().erase_fails;
    const auto fails = ftl_.record_erase_fail(plane, job.victim);
    if (fails < options_.faults.erase_fails_to_retire) {
      dispatch_erase(op_id);  // retry the erase in place
      return;
    }
    free_op(op_id);
    // The victim is fully invalid (survivors already migrated), so
    // retirement needs no rescue; the block just leaves rotation.
    ftl_.retire_block(plane, job.victim);
    ++metrics_.counters().retired_blocks;
    finish_gc_episode(job_index);
    return;
  }

  ftl_.erase_block(plane, job.victim);
  ++metrics_.counters().erases;
  free_op(op_id);
  if (faults_on_ && options_.faults.max_pe_cycles > 0 &&
      ftl_.blocks().erase_count(plane, job.victim) >=
          options_.faults.max_pe_cycles) {
    // Endurance limit reached: the freshly erased (clean) block retires.
    ftl_.retire_block(plane, job.victim);
    ++metrics_.counters().retired_blocks;
  }
  finish_gc_episode(job_index);
}

void Ssd::finish_gc_episode(std::uint32_t job_index) {
  GcJob& job = gc_jobs_[job_index];
  const std::uint64_t plane = job.plane_id;
  if (!ftl_.gc_satisfied(plane)) {
    start_gc_round(job_index);  // another victim in the same plane
    return;
  }
  // Space pressure resolved; give static wear leveling one rotation per
  // episode, and only with a full block of free headroom (a fully-valid
  // cold victim transiently consumes a block's worth of pages before its
  // erase returns one).
  if (!job.wl_round &&
      ftl_.blocks().free_blocks(plane) >
          ftl_.config().gc_target_free_blocks) {
    if (const auto cold = ftl_.wear_leveling_candidate(plane)) {
      job.wl_round = true;
      start_round_on_victim(job_index, *cold);
      return;
    }
  }
  job.active = false;
  gc_job_of_plane_[plane] = kNoJob;
}

// --- garbage collection -----------------------------------------------------------

std::uint32_t Ssd::acquire_gc_job() {
  for (std::uint32_t i = 0; i < gc_jobs_.size(); ++i) {
    if (!gc_jobs_[i].active) return i;
  }
  gc_jobs_.emplace_back();
  return static_cast<std::uint32_t>(gc_jobs_.size() - 1);
}

void Ssd::maybe_start_gc(std::uint64_t plane_id) {
  if (!options_.gc_enabled) return;
  if (gc_job_of_plane_[plane_id] != kNoJob) return;
  if (!ftl_.needs_gc(plane_id)) return;

  const std::uint32_t job_index = acquire_gc_job();
  GcJob& job = gc_jobs_[job_index];
  job = GcJob{};
  job.plane_id = plane_id;
  job.active = true;
  gc_job_of_plane_[plane_id] = job_index;
  start_gc_round(job_index);
}

void Ssd::start_gc_round(std::uint32_t job_index) {
  GcJob& job = gc_jobs_[job_index];
  const auto victim = ftl_.select_victim(job.plane_id);
  if (!victim) {
    // Nothing reclaimable (all Full blocks fully valid, or none Full).
    job.active = false;
    gc_job_of_plane_[job.plane_id] = kNoJob;
    return;
  }
  start_round_on_victim(job_index, *victim);
}

void Ssd::start_round_on_victim(std::uint32_t job_index,
                                std::uint32_t victim) {
  GcJob& job = gc_jobs_[job_index];
  job.victim = victim;
  // Reusable scratch: dispatch below never re-enters GC round setup, so
  // one survivor list serves every round without allocating.
  std::vector<sim::Ppn>& survivors = gc_scratch_;
  ftl_.valid_pages_into(job.plane_id, job.victim, survivors);
  job.outstanding = static_cast<std::uint32_t>(survivors.size());
  if (survivors.empty()) {
    if (job.rescue) {
      // Retired block fully drained; it stays kRetired forever.
      job.active = false;
      return;
    }
    erase_victim(job_index);
    return;
  }
  for (const sim::Ppn src : survivors) {
    const OpId read_id = alloc_op();
    PageOp& r = ops_[read_id];
    r.kind = OpKind::kGcRead;
    r.tenant = sim::kInternalTenant;
    r.ppn = static_cast<sim::Ppn32>(src);
    r.gc_job = job_index;
    dispatch_read(read_id);
  }
}

// --- load introspection -----------------------------------------------------------

double Ssd::channel_utilization(std::uint32_t channel) const {
  if (now_ == 0) return 0.0;
  return static_cast<double>(channel_busy_ns_.at(channel)) /
         static_cast<double>(now_);
}

Duration Ssd::unit_backlog_ns(std::uint64_t unit) const {
  const UnitState& u = units_[unit];
  Duration backlog = 0;
  if (u.busy && u.busy_until > now_) backlog += u.busy_until - now_;
  backlog += static_cast<Duration>(u.read_wait.size()) *
             (options_.timing.read_ns + page_xfer_ns_);
  backlog += static_cast<Duration>(u.write_q.size()) *
             (page_xfer_ns_ + options_.timing.program_ns);
  backlog += static_cast<Duration>(u.erase_wait.size()) *
             options_.timing.erase_ns;
  return backlog;
}

Duration Ssd::channel_backlog_ns(std::uint32_t channel) const {
  const ChannelState& ch = channels_[channel];
  Duration backlog = 0;
  if (ch.bus_busy && ch.bus_free_at > now_) backlog += ch.bus_free_at - now_;
  backlog += static_cast<Duration>(ch.read_q.size()) * page_xfer_ns_;
  const std::uint64_t base = first_unit(channel);
  const std::uint64_t count = units_per_channel();
  for (std::uint64_t i = 0; i < count; ++i) {
    backlog += static_cast<Duration>(units_[base + i].write_q.size()) *
               page_xfer_ns_;
  }
  return backlog;
}

Duration Ssd::chip_backlog_ns(std::uint32_t global_chip_id) const {
  // The chip is the execution unit.
  if (!options_.multiplane_program) return unit_backlog_ns(global_chip_id);
  const auto& g = options_.geometry;
  const std::uint64_t base =
      static_cast<std::uint64_t>(global_chip_id) * g.planes_per_chip;
  // Least-loaded plane of the chip dominates where the next write lands.
  Duration best = std::numeric_limits<Duration>::max();
  for (std::uint32_t i = 0; i < g.planes_per_chip; ++i) {
    best = std::min(best, unit_backlog_ns(base + i));
  }
  return best;
}

}  // namespace ssdk::ssd
