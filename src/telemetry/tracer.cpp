#include "telemetry/tracer.hpp"

#include <algorithm>

namespace ssdk::telemetry {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kBusTransfer: return "bus_transfer";
    case SpanKind::kFlashRead: return "flash_read";
    case SpanKind::kFlashProgram: return "flash_program";
    case SpanKind::kFlashErase: return "flash_erase";
    case SpanKind::kRetrySense: return "retry_sense";
    case SpanKind::kBufferHit: return "buffer_hit";
    case SpanKind::kGcVictim: return "gc_victim";
    case SpanKind::kBlockRetire: return "block_retire";
    case SpanKind::kPageAlloc: return "page_alloc";
    case SpanKind::kKeeperDecision: return "keeper_decision";
    case SpanKind::kMountScan: return "mount_scan";
    case SpanKind::kRecovery: return "recovery";
    case SpanKind::kPowerLoss: return "power_loss";
    case SpanKind::kVolatileLoss: return "volatile_loss";
    case SpanKind::kSchedWait: return "sched_wait";
  }
  return "unknown";
}

const char* op_class_name(OpClass op) {
  switch (op) {
    case OpClass::kNone: return "none";
    case OpClass::kHostRead: return "host_read";
    case OpClass::kHostWrite: return "host_write";
    case OpClass::kHostTrim: return "host_trim";
    case OpClass::kGcRead: return "gc_read";
    case OpClass::kGcWrite: return "gc_write";
    case OpClass::kErase: return "erase";
    case OpClass::kFlushWrite: return "flush_write";
    case OpClass::kHostFlush: return "host_flush";
  }
  return "unknown";
}

Tracer::Tracer(TelemetryConfig config) : config_(config) {
  if (config_.capacity_events == 0) config_.capacity_events = 1;
}

void Tracer::record(const TraceEvent& event) {
  ++recorded_;
  const std::size_t capacity = config_.capacity_events;
  if (ring_.size() < capacity) {
    // Double the storage, but never past the capacity.
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(std::min(capacity, std::max<std::size_t>(
                                           64, 2 * ring_.capacity())));
    }
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;  // full: overwrite the oldest; head advances
  head_ = (head_ + 1) % capacity;
}

void Tracer::record_point(SimTime at, SpanKind kind, sim::TenantId tenant,
                          std::uint32_t channel, std::uint32_t unit,
                          std::uint64_t detail) {
  TraceEvent e;
  e.begin = at;
  e.end = at;
  e.kind = kind;
  e.tenant = tenant;
  e.channel = channel;
  e.unit = unit;
  e.detail = detail;
  record(e);
}

void Tracer::record_decision(KeeperDecision decision) {
  record_point(decision.time, SpanKind::kKeeperDecision, 0, kNoResource,
               kNoResource, decisions_.size());
  decisions_.push_back(std::move(decision));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  decisions_.clear();
}

}  // namespace ssdk::telemetry
