// Low-overhead lifecycle tracer: a ring buffer of TraceEvents that grows
// as events arrive, up to a fixed capacity, plus a small side list of
// keeper decisions (rare, carry strings).
//
// The device and FTL hold a `Tracer*` that is null when telemetry is off;
// every instrumentation site is `if (tracer_) tracer_->record(...)`, so a
// disabled run costs one predictable branch per site and allocates
// nothing. Recording never perturbs simulation state or timing — traced
// and untraced runs produce bit-identical schedules (tested).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "telemetry/span.hpp"

namespace ssdk::telemetry {

struct TelemetryConfig {
  /// Ring capacity in events. Sizing: one host write in held-bus mode
  /// emits up to 4 events (alloc, wait, bus, program), a read up to 4, so
  /// the default ~1M events covers roughly 250k requests of full detail.
  /// The ring's storage grows with the events recorded (48 bytes each),
  /// doubling up to this capacity, so a short run pays only for its own.
  /// When full, the ring overwrites the oldest events (keeps the tail of
  /// the run, where contention usually lives).
  std::size_t capacity_events = 1u << 20;
  /// Record FTL placement decisions (kPageAlloc) — one point event per
  /// write; off by default to keep the ring for timing spans.
  bool ftl_decisions = false;
};

/// One keeper window decision, mirrored into the trace so strategy
/// switches are visible on the timeline next to the latency they caused.
struct KeeperDecision {
  SimTime time = 0;
  std::string strategy;  ///< strategy name, e.g. "4:4"
  std::string features;  ///< MixFeatures::describe() of the window
  bool changed = false;  ///< did the allocation actually switch?
};

class Tracer {
 public:
  explicit Tracer(TelemetryConfig config = {});

  const TelemetryConfig& config() const { return config_; }

  /// Append one event: amortized O(1); the ring allocates only while it
  /// grows towards capacity_events, and never once it is full.
  void record(const TraceEvent& event);

  /// Convenience for point events (begin == end).
  void record_point(SimTime at, SpanKind kind, sim::TenantId tenant,
                    std::uint32_t channel, std::uint32_t unit,
                    std::uint64_t detail);

  void record_decision(KeeperDecision decision);

  /// Events in chronological record order (oldest surviving first).
  std::vector<TraceEvent> events() const;
  const std::vector<KeeperDecision>& decisions() const { return decisions_; }

  std::size_t size() const { return ring_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wrap: recorded() - size().
  std::uint64_t dropped() const { return recorded_ - ring_.size(); }

  /// Forget every event and decision; the ring keeps its storage.
  void clear();

 private:
  // Concurrency: a Tracer is owner-partitioned, not mutex-protected —
  // each device (and each fleet worker's devices) writes to its own
  // tracer, and readers consume it only after the owning run returns.
  // Thread-safety annotations (SSDK_GUARDED_BY) would assert a locking
  // discipline this type neither has nor needs; do not share one tracer
  // across concurrently-running devices.
  TelemetryConfig config_;
  /// Until it holds capacity_events, the ring is in record order and
  /// head_ is 0; once full, head_ is the oldest (next overwritten) slot.
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  std::vector<KeeperDecision> decisions_;
};

}  // namespace ssdk::telemetry
