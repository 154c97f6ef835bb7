// Multi-tenant admission scheduling (DESIGN.md §17).
//
// The scheduler sits between the host request stream and channel dispatch:
// every arrival is enqueued, and the device admits requests only when the
// scheduler grants them. The default — FIFO with an unlimited admission
// window — grants each request immediately at its arrival instant, so the
// dispatch schedule (and therefore every golden trace) is bit-identical to
// the historical direct-dispatch path. Fairness policies (WFQ, DRR,
// weighted share) reorder admissions only when a finite
// max_outstanding_requests window makes requests actually queue.
//
// Determinism: every policy is pure integer arithmetic over scheduler
// state, tie-broken by enqueue sequence or tenant id — a given enqueue
// history always yields the same grant sequence, on any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/request.hpp"
#include "snapshot/archive.hpp"
#include "util/ring_buffer.hpp"

namespace ssdk::sched {

enum class Policy : std::uint8_t {
  kFifo,           ///< arrival order (the schedule-neutral default)
  kWfq,            ///< start-time fair queueing over weighted page service
  kDrr,            ///< deficit round robin with weight-scaled quanta
  kWeightedShare,  ///< least served-pages/weight first
};

const char* policy_name(Policy policy);
/// Parse "fifo" | "wfq" | "drr" | "weighted_share" (bench/CLI spelling).
/// Throws std::invalid_argument on anything else.
Policy parse_policy(std::string_view name);

/// Per-tenant scheduling contract: relative weight for the fair policies
/// and an optional latency SLO the metrics layer counts violations
/// against. Tenants without an entry default to weight 1, no SLO.
struct TenantShare {
  sim::TenantId tenant = 0;
  std::uint32_t weight = 1;
  /// Per-request latency target in microseconds (arrival to completion);
  /// 0 = no target. Violations are counted per tenant in TenantMetrics.
  std::uint64_t slo_target_us = 0;
};

struct SchedConfig {
  Policy policy = Policy::kFifo;
  /// Admission window: requests admitted to dispatch but not yet fully
  /// completed. 0 = unlimited — every request is admitted the instant it
  /// arrives, which keeps FIFO bit-identical to the pre-scheduler device.
  /// A finite window is what lets the fair policies reorder admissions.
  std::uint32_t max_outstanding_requests = 0;
  std::vector<TenantShare> shares;

  std::uint32_t weight_of(sim::TenantId tenant) const;
  std::uint64_t slo_target_us_of(sim::TenantId tenant) const;
  /// True when this config provably cannot change the dispatch schedule
  /// (FIFO + unlimited window): arrivals drain through the scheduler
  /// synchronously in arrival order.
  bool schedule_neutral() const {
    return policy == Policy::kFifo && max_outstanding_requests == 0;
  }
  /// Throws std::invalid_argument on zero weights or duplicate tenant
  /// entries.
  void validate() const;
};

/// One admission decision handed back by pick().
struct Grant {
  std::uint64_t request_index = 0;  ///< index into the device request table
  sim::TenantId tenant = 0;
  SimTime enqueued_at = 0;          ///< when the request entered the queue
  std::uint64_t decision_seq = 0;   ///< monotone pick counter (telemetry)
};

/// The admission scheduler: one FIFO lane per tenant, and a pick rule
/// per policy that chooses which lane's head is admitted next. FIFO takes
/// the head with the oldest enqueue seq, WFQ the smallest start tag, DRR
/// tops up deficits round-robin, weighted share takes the smallest
/// served/weight. With a handful of tenants a linear scan over the lanes
/// is all any rule needs.
///
/// The device enqueues every arrival, then drains pick() until it returns
/// false (window closed or nothing pending); on_complete() reopens the
/// window as requests finish. A plain value: copying it (Ssd::fork)
/// copies the queues.
class Scheduler {
 public:
  /// One queued request. The SCHD record writes the fields in this order:
  /// request index at +0, page count at +8.
  struct Item {
    std::uint64_t request_index = 0;
    std::uint32_t page_count = 0;
    SimTime enqueued_at = 0;
    std::uint64_t seq = 0;         ///< enqueue order (FIFO, tie-breaks)
    std::uint64_t start_tag = 0;   ///< WFQ virtual start
    std::uint64_t finish_tag = 0;  ///< WFQ virtual finish
  };

  /// Throws std::invalid_argument on an invalid config (see validate()).
  explicit Scheduler(const SchedConfig& config);

  /// Queue a request on its tenant's lane. `tenant` indexes the lane
  /// vector, so it must be a small host tenant id.
  void enqueue(std::uint64_t request_index, sim::TenantId tenant,
               std::uint32_t page_count, SimTime now);
  /// Admit the next request under the policy; false when the admission
  /// window is closed or no request is pending.
  bool pick(Grant& out);
  /// One previously admitted request fully completed.
  void on_complete(sim::TenantId tenant);

  /// Requests enqueued but not yet admitted.
  std::size_t pending() const { return pending_; }
  /// Requests admitted but not yet completed.
  std::uint64_t outstanding() const { return outstanding_; }
  /// Request indices currently held in the lanes, in tenant order (audit
  /// and power-loss introspection; deterministic).
  std::vector<std::uint64_t> pending_requests() const;
  /// Total admissions granted so far (monotone; survives clear()).
  std::uint64_t decisions() const { return decision_seq_; }

  /// Drop all queued work and outstanding accounting (power loss: queued
  /// requests vanish like every other volatile structure).
  void clear();

  void save_state(snapshot::StateWriter& w) const;
  /// Load a saved SCHD section. Returns each queued item with the payload
  /// offset of its record, in lane order, so the owner can check the
  /// request it names against state loaded earlier.
  std::vector<std::pair<Item, std::uint64_t>> load_state(
      snapshot::StateReader& r);
  /// Structural self-audit; throws util::InvariantViolation.
  void check_invariants() const;

 private:
  struct Lane {
    util::RingBuffer<Item> q;
    std::uint64_t last_finish = 0;   ///< WFQ: tail of the tag chain
    std::uint64_t deficit = 0;       ///< DRR credit, in pages
    std::uint64_t served_pages = 0;  ///< weighted share accounting
  };

  bool window_open() const {
    return config_.max_outstanding_requests == 0 ||
           outstanding_ < config_.max_outstanding_requests;
  }
  std::uint64_t weight(std::size_t tenant) const {
    return config_.weight_of(static_cast<sim::TenantId>(tenant));
  }
  /// The backlogged lane the policy serves next; callers guarantee
  /// pending_ > 0.
  std::size_t next_lane();
  /// Whether backlogged lane `a` goes before lane `b` under the argmin
  /// rules (FIFO, WFQ, weighted share).
  bool before(std::size_t a, std::size_t b) const;

  SchedConfig config_;
  std::vector<Lane> lanes_;  ///< indexed by tenant id
  // ssdk-snap: skip(pending_): derived count of queued requests, recomputed while the lanes load
  std::size_t pending_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t decision_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t vtime_ = 0;      ///< WFQ virtual clock
  sim::TenantId rr_cursor_ = 0;  ///< DRR: next tenant id to visit
};

/// A validated scheduler on the heap (benchmarks and tests).
std::unique_ptr<Scheduler> make_scheduler(const SchedConfig& config);

}  // namespace ssdk::sched
