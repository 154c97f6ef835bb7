// The simulated SSD device: multi-channel, multi-chip, multi-plane,
// event-driven.
//
// Resource model (SSDSim-style multilevel parallelism, Hu et al. [18]):
//   * Each channel has one shared bus. A page transfer occupies the bus for
//     timing.page_transfer_ns(); command overhead is folded in.
//   * Each plane executes one flash-array operation at a time (read /
//     program / erase). Planes of a chip operate concurrently (multiplane /
//     die-interleaved commands), so a channel's write bandwidth is bounded
//     by min(bus, planes x program rate). During a read the plane is also
//     held while its page register is shifted out over the bus.
// Operation pipelines:
//   write: [bus: transfer, plane held] -> [plane: program]
//   read:  [plane: array read]         -> [bus + plane: transfer out]
//   erase: [plane: erase]
// Arbitration: reads have bus priority over writes (configurable — the
// paper's motivation experiment depends on it); a write is granted only
// when its target plane is also free. GC (victim migration + erase) flows
// through the same pipelines and therefore interferes realistically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ftl/ftl.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_model.hpp"
#include "sim/geometry.hpp"
#include "sim/metrics.hpp"
#include "sim/power_model.hpp"
#include "sim/request.hpp"
#include "sim/timing.hpp"
#include "telemetry/tracer.hpp"
#include "util/paged_vector.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"

namespace ssdk::ssd {

/// DRAM write buffer (the "DRAM buffer" of the paper's Figure 1).
/// Dirty pages are absorbed at DRAM latency and flushed to flash in FIFO
/// order once occupancy crosses the high watermark. Disabled by default —
/// the paper's experiments measure raw flash-path behaviour.
///
/// Modeling note: a page leaves the buffer when its flush is *enqueued*,
/// not when its program completes, so occupancy never reflects the
/// in-flight flush backlog. Under sustained overload this overstates the
/// buffer's benefit (host writes keep hitting DRAM latency while flush
/// traffic competes with reads on the flash path).
struct WriteBufferConfig {
  std::uint32_t capacity_pages = 0;  ///< 0 disables the buffer
  Duration dram_ns = 2 * kMicrosecond;  ///< buffered-completion latency
  double high_watermark = 0.9;  ///< start flushing above this occupancy
  double low_watermark = 0.7;   ///< stop flushing below this occupancy

  /// Throws std::invalid_argument unless each watermark is finite and
  /// >= 0 and watermark x capacity_pages fits a size_t, the type the
  /// flush thresholds are cast to. A high watermark above 1 is legal:
  /// occupancy never crosses it, so the buffer never flushes on its own.
  void validate() const;
};

struct SsdOptions {
  sim::Geometry geometry = sim::Geometry::small();
  sim::Timing timing = sim::Timing::paper();
  ftl::FtlConfig ftl;
  WriteBufferConfig write_buffer;
  bool read_priority = true;  ///< reads preempt queued writes on the bus
  bool gc_enabled = true;
  /// Flash execution granularity. false (default): a chip executes one
  /// array operation at a time (SSDSim's basic command set, the paper's
  /// substrate). true: planes of a chip operate concurrently (multiplane /
  /// die-interleaved advanced commands) — the ablation in
  /// bench_ablation_multiplane.
  bool multiplane_program = false;
  /// Write/bus pipelining. false (default, SSDSim basic commands): the
  /// channel bus is held for the entire write — transfer plus program —
  /// serializing writes per channel; this is what makes heavy write
  /// streams monopolize shared channels (the conflicts SSDKeeper
  /// manages). true: the bus is released after the data transfer so
  /// another chip can use the channel while the program completes
  /// (advanced / pipelined mode).
  bool pipelined_writes = false;
  /// Fault injection (read retries, program/erase failures, bad-block
  /// retirement). Disabled by default: every probability is zero, no
  /// random numbers are drawn, and the schedule is bit-identical to the
  /// fault-free device.
  sim::FaultModel faults;
  /// Power-loss injection. Disabled by default: no OOB metadata is
  /// materialized and the schedule is bit-identical to the power-unaware
  /// device. Enabled: every program also records per-page OOB metadata so
  /// a power_off()/power_on() cycle can rebuild the FTL from flash alone.
  sim::PowerModel power;
  /// Multi-tenant admission scheduling. The default (FIFO, unlimited
  /// window) admits every request the instant it arrives — provably
  /// schedule-neutral, so golden traces stay bit-identical. Fair policies
  /// with a finite max_outstanding_requests window reorder admissions by
  /// tenant weight; per-tenant SLO targets feed TenantMetrics violation
  /// counts.
  sched::SchedConfig sched;
};

/// What a power cut destroyed, returned by Ssd::power_off() so tests can
/// classify the cut point (e.g. "caught a GC migration mid-flight").
struct PowerLossReport {
  std::uint64_t torn_pages = 0;         ///< in-flight programs, all kinds
  std::uint64_t torn_gc_pages = 0;      ///< subset: GC migration writes
  std::uint64_t torn_rescue_pages = 0;  ///< subset: bad-block rescues
  std::uint64_t unknown_blocks = 0;     ///< in-flight erases
  std::uint64_t lost_buffered_pages = 0;  ///< acked-volatile DRAM loss
  std::uint64_t interrupted_requests = 0;  ///< arrived, never completed
};

class Ssd {
 public:
  explicit Ssd(SsdOptions options = {});

  const SsdOptions& options() const { return options_; }
  ftl::Ftl& ftl() { return ftl_; }
  const ftl::Ftl& ftl() const { return ftl_; }

  // --- tenant policy (forwarded to the FTL) -------------------------------
  void set_tenant_channels(sim::TenantId tenant,
                           std::vector<std::uint32_t> channels) {
    ftl_.set_tenant_channels(tenant, std::move(channels));
  }
  void set_tenant_alloc_mode(sim::TenantId tenant, ftl::AllocMode mode) {
    ftl_.set_tenant_alloc_mode(tenant, mode);
  }

  // --- request ingestion ----------------------------------------------------

  /// Append requests (arrival times must be non-decreasing across all
  /// submissions). Call run_to_completion() afterwards. The span form
  /// grows the request table geometrically, to exactly the span on a
  /// fresh device.
  void submit(std::span<const sim::IoRequest> requests);
  void submit(const sim::IoRequest& request);

  /// Drain every submitted request and all induced GC work. Dirty pages
  /// may remain in the write buffer afterwards (volatile cache
  /// semantics); call flush_write_buffer() + run_to_completion() to force
  /// them to flash.
  void run_to_completion();

  /// Run the event loop, but stop just before `handle_arrival(request_index)`
  /// — i.e. every event and arrival strictly preceding that request in the
  /// deterministic (time, seq) order is processed, and the device is left
  /// exactly in the state an uninterrupted run would have at that point.
  /// Resuming with run_to_completion() (on this device, a fork, or a
  /// snapshot-restored copy) replays the remainder bit-identically.
  /// Passing an index >= the submitted request count drains everything.
  void run_until_arrival(std::uint64_t request_index);

  /// Schedule flash writes for every dirty buffered page.
  void flush_write_buffer();

  /// Dirty pages currently held in the write buffer.
  std::size_t write_buffer_occupancy() const { return buffer_.size(); }
  std::uint64_t write_buffer_hits() const { return buffer_hits_; }
  /// FIFO entries (live + stale) backing the buffer's eviction order.
  /// Compaction keeps this bounded by ~2x occupancy; exposed for tests.
  std::size_t write_buffer_fifo_entries() const {
    return buffer_fifo_.size();
  }

  SimTime now() const { return now_; }
  sim::MetricsCollector& metrics() { return metrics_; }
  const sim::MetricsCollector& metrics() const { return metrics_; }

  /// The admission scheduler configured at construction (options().sched).
  const sched::Scheduler& scheduler() const { return sched_; }

  // --- power loss + recovery (ssd_power.cpp) -------------------------------

  /// Sudden power-off, right now. In-flight programs tear their pages,
  /// in-flight erases leave unknown blocks, the DRAM write buffer and all
  /// queued work vanish; only flash + OOB and the bad-block table survive.
  /// Requires options().power.enabled (the OOB store must have been
  /// recording since construction). The device refuses further work until
  /// power_on().
  PowerLossReport power_off();

  /// Power-up mount: run the FTL's OOB recovery scan, charge the modeled
  /// mount time (full-device scan reads + re-erases of unknown blocks)
  /// to the simulation clock and metrics, restart rescue migrations for
  /// retired blocks still holding data, then resume service.
  void power_on();

  bool powered_off() const { return powered_off_; }

  /// Durability contract audit, meaningful right after power_on(): the L2P
  /// map must equal an independent recomputation of the OOB scan's winners
  /// (highest seq, lowest PPN on ties), no torn/failed page may be mapped,
  /// and the mapped-page count must match. Throws util::InvariantViolation.
  void verify_recovery() const;

  /// (tenant, LPN) keys whose only durable copy died on media (an
  /// uncorrectable GC/rescue read) — recorded only while OOB is enabled.
  /// The crash-fuzz oracle excludes these from acked-durable checks.
  const std::vector<std::uint64_t>& media_lost_keys() const {
    return media_lost_keys_;
  }

  /// Called at the end of every power_on(). The online keeper uses this to
  /// re-enter feature collection on a safe allocation after a crash. Like
  /// the other hooks: non-owning, not forked, not serialized.
  using PowerHook = std::function<void()>;
  void set_power_hook(PowerHook hook) { power_hook_ = std::move(hook); }

  // --- hooks (used by the online SSDKeeper) --------------------------------

  /// Called when a request enters the device, before dispatch. A hook may
  /// call set_tenant_channels / set_tenant_alloc_mode (Algorithm 2's
  /// strategy switch takes effect for subsequent placements). Hooks must
  /// not call submit().
  using ArrivalHook = std::function<void(const sim::IoRequest&)>;
  /// Called when a host request fully completes.
  using CompletionHook = std::function<void(const sim::Completion&)>;

  void set_arrival_hook(ArrivalHook hook) { arrival_hook_ = std::move(hook); }
  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }

  // --- telemetry ------------------------------------------------------------

  /// Attach a lifecycle tracer (nullptr detaches). Non-owning; the tracer
  /// must outlive the device or be detached first. Tracing never changes
  /// the schedule: a traced run is bit-identical to an untraced one.
  void set_tracer(telemetry::Tracer* tracer) {
    tracer_ = tracer;
    ftl_.set_tracer(tracer, &now_);
  }
  telemetry::Tracer* tracer() const { return tracer_; }

  // --- load introspection (dynamic page allocation) -------------------------

  Duration channel_backlog_ns(std::uint32_t channel) const;
  Duration chip_backlog_ns(std::uint32_t global_chip) const;

  // --- utilization accounting -----------------------------------------------

  /// Cumulative bus-busy time of one channel.
  Duration channel_busy_ns(std::uint32_t channel) const {
    return channel_busy_ns_.at(channel);
  }
  /// Fraction of elapsed simulation time the channel's bus was busy.
  double channel_utilization(std::uint32_t channel) const;
  /// Cumulative flash busy time of one execution unit (chip by default).
  Duration unit_busy_ns(std::uint64_t unit) const {
    return unit_busy_ns_.at(unit);
  }
  std::size_t unit_count() const { return units_.size(); }

  // --- replay memory --------------------------------------------------------

  /// Pages of page-op records the op slab has allocated; it never shrinks
  /// below its in-flight high-water mark. Exposed for tests.
  std::size_t op_slab_pages() const { return ops_.page_count(); }

  // --- snapshot / fork ------------------------------------------------------

  /// Deep-copy the complete device mid-simulation. The fork shares nothing
  /// with the parent and replays the remaining submitted work bit-identically
  /// to it. Non-owning observers (arrival/completion hooks, tracer) are
  /// deliberately NOT carried over — a fork starts unobserved and callers
  /// attach their own.
  std::unique_ptr<Ssd> fork() const;

  /// Serialize the complete mutable device state (everything except the
  /// construction-time options, which the snapshot container stores
  /// separately, and non-owning observers). load_state requires a device
  /// constructed with the identical SsdOptions; geometry-derived sizes are
  /// validated against the payload.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

  // --- checked-build audit --------------------------------------------------

  /// Audit the full device against its structural invariants: L2P
  /// bijection and block bookkeeping (via the FTL), event-queue order and
  /// time monotonicity, op-slab free-list integrity, op-queue membership,
  /// the cached write-grant keys, busy deadlines vs. the clock,
  /// write-buffer key/FIFO consistency, and GC job registration. Throws
  /// util::InvariantViolation on the first breach. O(device state); call
  /// at event boundaries only.
  void check_invariants() const;

  /// Run check_invariants() automatically every `interval` handled
  /// arrivals (0, the default, disables). The `checked` build preset and
  /// the runner turn this on; any build may enable it explicitly.
  void set_audit_interval(std::uint64_t interval) {
    audit_interval_ = interval;
    arrivals_since_audit_ = 0;
  }
  std::uint64_t audit_interval() const { return audit_interval_; }

 private:
  /// Memberwise copy for fork(); the public fork() fixes up the self
  /// pointers (load_view_, FTL trace clock) that a plain copy would leave
  /// aimed at the parent.
  Ssd(const Ssd&) = default;

  enum class OpKind : std::uint8_t {
    kHostRead,
    kHostWrite,
    kGcRead,
    kGcWrite,
    kErase,
    kFlushWrite,  ///< write-buffer eviction flowing to flash
  };

  /// One in-flight page operation, 48 bytes: `mixes`' Mix 2 under 2:2:2:2
  /// holds 207,982 at once. The channel, unit, plane and block derive from
  /// `ppn` (an erase holds its block's first page), and the OOB seq lives
  /// in op_oob_seqs_.
  struct PageOp {
    std::uint64_t lpn = 0;  ///< owner LPN (host/flush ops; fault re-place)
    std::uint64_t enq_seq = 0;  ///< dispatch order (FIFO tie-breaks)
    SimTime dispatched_at = 0;  ///< queue-wait accounting
    std::uint32_t request = kNoRequest32;  ///< host request index
    sim::TenantId tenant = 0;
    sim::Ppn32 ppn = sim::kInvalidPpn32;
    sim::Ppn32 gc_src = sim::kInvalidPpn32;  ///< migration source (kGcWrite)
    std::uint32_t gc_job = kNoJob;
    std::uint16_t attempts = 0;  ///< read retries issued so far
    OpKind kind = OpKind::kHostRead;
    bool in_use = false;
  };
  static_assert(sizeof(PageOp) == 48,
                "one record per in-flight page op: keep it packed");

  /// Slot index in the op slab.
  using OpId = std::uint32_t;
  // Op queues are rings, not deques: after warm-up their capacity is
  // stable and steady-state queueing allocates nothing.
  using OpQueue = util::RingBuffer<OpId>;
  /// The write buffer's eviction FIFO of packed (tenant, lpn) keys.
  using KeyQueue = util::RingBuffer<std::uint64_t>;
  /// The op slab: page-op records in pages that never move.
  using OpSlab = util::PagedVector<PageOp>;

  struct ChannelState {
    bool bus_busy = false;
    SimTime bus_free_at = 0;
    OpQueue read_q;          ///< ops ready for read-out transfer
    bool rr_toggle = false;  ///< fairness state when !read_priority
  };

  /// One flash execution unit: a chip (default) or a plane (multiplane).
  struct UnitState {
    bool busy = false;
    SimTime busy_until = 0;
    OpQueue read_wait;   ///< array reads awaiting the unit
    OpQueue erase_wait;  ///< erases awaiting the unit
    OpQueue write_q;     ///< writes awaiting bus + unit
  };

  /// One submitted host request: the IoRequest's fields reordered so that
  /// `remaining` fills what would be padding — 40 bytes where an embedded
  /// IoRequest plus three counts took 56. The two counts only fault
  /// injection and the write buffer produce live in request_tallies_.
  struct RequestState {
    std::uint64_t id = 0;
    std::uint64_t lpn = 0;
    SimTime arrival = 0;
    sim::TenantId tenant = 0;
    std::uint32_t page_count = 0;
    std::uint32_t remaining = 0;  ///< pages not yet complete
    sim::OpType type = sim::OpType::kRead;

    sim::IoRequest request() const {
      return sim::IoRequest{id, tenant, type, lpn, page_count, arrival};
    }
  };
  static_assert(sizeof(RequestState) == 40,
                "one request record per submitted request: keep it packed");

  /// A request's side counts (request_tallies_).
  struct RequestTally {
    std::uint32_t failed = 0;  ///< pages that were uncorrectable (faults)
    /// Pages of this write absorbed by the volatile DRAM buffer; the
    /// completion is acked-durable only when this is zero.
    std::uint32_t volatile_pages = 0;
  };

  /// One outstanding host flush: the request completes once every
  /// write-buffer flush program enqueued before `threshold` has settled.
  struct FlushBarrier {
    std::uint64_t request = kNoRequest;
    std::uint64_t threshold = 0;  ///< enq_seq fence (exclusive)
    std::uint32_t remaining = 0;  ///< kFlushWrite ops still in flight
  };

  struct GcJob {
    std::uint64_t plane_id = 0;
    std::uint32_t victim = 0;
    std::uint32_t outstanding = 0;  ///< migrations not yet durable
    bool active = false;
    /// Set when the current round is a static wear-leveling rotation; at
    /// most one rotation runs per GC episode so leveling overhead stays
    /// proportional to GC activity.
    bool wl_round = false;
    /// Rescue job: migrate survivors off a freshly retired block. Not
    /// registered in gc_job_of_plane_ (plane GC may run concurrently)
    /// and never erases its victim — the block is dead.
    bool rescue = false;
  };

  static constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};
  /// PageOp::request of an op serving no host request. It is also why the
  /// request table stops one entry short of 2^32.
  static constexpr std::uint32_t kNoRequest32 = ~std::uint32_t{0};
  /// The op slab's slot limit, 2^32 - 1: every id, and the slot count
  /// itself, fits an OpId.
  static constexpr std::size_t kMaxOps = ~OpId{0};
  static constexpr std::uint32_t kNoJob = ~std::uint32_t{0};
  /// Grant key of a unit that cannot take a write; sorts after every seq.
  static constexpr std::uint64_t kNoGrant = ~std::uint64_t{0};

  // Op slab management.
  /// Throws std::length_error rather than grow the slab past kMaxOps.
  OpId alloc_op();
  void free_op(OpId id);

  /// Request `index`'s side counts; all zero when none was ever recorded.
  RequestTally tally(std::uint64_t index) const {
    return index < request_tallies_.size() ? request_tallies_[index]
                                           : RequestTally{};
  }
  /// Mutable side counts of request `index`, allocating request_tallies_
  /// (to the request table's size) on first use.
  RequestTally& tally_slot(std::uint64_t index) {
    if (index >= request_tallies_.size()) {
      request_tallies_.resize(requests_.size());
    }
    return request_tallies_[index];
  }

  /// Periodic-audit tick, called once per handled arrival.
  void maybe_audit() {
    if (audit_interval_ == 0) return;
    if (++arrivals_since_audit_ >= audit_interval_) {
      arrivals_since_audit_ = 0;
      check_invariants();
    }
  }

  // Telemetry (no-ops unless a tracer is attached; call sites guard on
  // tracer_ so a disabled run costs one branch per site).
  telemetry::OpClass op_class(const PageOp& op) const;
  std::uint64_t host_request_id(const PageOp& op) const;
  /// Span tied to one page op on its execution unit (the channel is the
  /// unit's).
  void trace_op_span(telemetry::SpanKind kind, SimTime begin, SimTime end,
                     const PageOp& op, std::uint64_t unit,
                     std::uint64_t detail = 0);
  /// Queue-wait span from dispatch to first grant; skipped when zero.
  void trace_wait(const PageOp& op, std::uint64_t unit);

  /// The run loop's next step is the arrival at the cursor, not the next
  /// event: an arrival is pending and no event is due before it.
  bool arrival_next() const {
    return arrival_cursor_ < requests_.size() &&
           (events_.empty() ||
            requests_[arrival_cursor_].arrival <= events_.next_time());
  }

  // Power-loss internals (ssd_power.cpp).
  /// Fires a scheduled cut when the run loop's next step is at/past the
  /// trigger; returns true when the cut fired (the loop re-evaluates).
  bool maybe_fire_power_cut();
  Duration modeled_mount_ns(const ftl::RecoveryReport& rec) const;

  // Host flush (write barrier).
  void handle_flush(std::uint64_t request_index);
  /// A kFlushWrite with this enq_seq reached a terminal state; release
  /// every barrier it was holding up.
  void settle_flush_barriers(std::uint64_t enq_seq);
  /// Record a completed program's OOB metadata (power model on).
  void record_program_oob(OpId op_id, bool program_failed);
  /// Migration completed before its source's own program did: resolve the
  /// copied version from the pending op instead of the (unwritten) src OOB.
  void record_resolved_migration_oob(const PageOp& op);

  // Admission scheduling (the path every arrival takes).
  /// Drain the scheduler: admit granted requests until the window closes
  /// or nothing is pending. Re-entrant calls (a synchronous completion
  /// inside an admission) are absorbed by the outer pump.
  void pump_scheduler();
  /// Dispatch one granted request's page ops (the pre-scheduler
  /// handle_arrival body).
  void admit_request(std::uint64_t request_index);
  /// Page `lpn` of a request served by the DRAM write buffer (a read hit
  /// or an absorbed write): frees its op, records the kBufferHit span and
  /// completes the page after the DRAM latency.
  void serve_from_buffer(std::uint64_t request_index, OpId op_id,
                         std::uint64_t lpn);

  // Event handlers.
  void handle_arrival(std::uint64_t request_index);
  void handle_flash_done(std::uint64_t unit, OpId op_id);
  /// Merged bus-release + program-completion for non-pipelined writes.
  void handle_write_done(std::uint64_t unit, OpId op_id);
  /// `op_id` is an event payload: an op id or sim::kNoOp.
  void handle_bus_free(std::uint32_t channel, std::uint64_t op_id);
  void handle_buffer_done(std::uint64_t request_index,
                          std::uint64_t pages);

  // Write-buffer internals.
  static std::uint64_t buffer_key(sim::TenantId tenant, std::uint64_t lpn) {
    return (static_cast<std::uint64_t>(tenant) << 40) | lpn;
  }
  /// Absorb one page into the buffer; returns false when the buffer is
  /// disabled or full (caller sends the page to flash).
  bool buffer_write(sim::TenantId tenant, std::uint64_t lpn);
  /// True when (tenant, lpn) is dirty in the buffer (read hit).
  bool buffer_holds(sim::TenantId tenant, std::uint64_t lpn) const;
  /// Evict FIFO-oldest dirty pages down to the low watermark.
  void maybe_flush_buffer();
  void flush_one(sim::TenantId tenant, std::uint64_t lpn);
  /// Drop stale FIFO entries (keys trimmed out of the buffer) when they
  /// outnumber live ones; keeps the FIFO bounded by ~2x occupancy under
  /// trim-heavy workloads without changing eviction order.
  void maybe_compact_buffer_fifo();
  void compact_buffer_fifo();

  // Dispatch / arbitration.
  void dispatch_read(OpId op_id);
  void dispatch_write(OpId op_id);
  void dispatch_erase(OpId op_id);
  void start_array_read(std::uint64_t unit, OpId op_id);
  void start_erase(std::uint64_t unit, OpId op_id);
  /// Returns true when it fell through to arbitrate() for the unit's
  /// channel (so the caller must not arbitrate the same channel again —
  /// the duplicate call is always a no-op and just re-scans the queues).
  bool unit_next(std::uint64_t unit);
  void arbitrate(std::uint32_t channel);
  void grant_read_transfer(std::uint32_t channel);
  /// Unit holding the oldest grantable write on this channel (free unit,
  /// non-empty write queue), or kNoGrant when no write can be granted.
  std::uint64_t oldest_grantable_write(std::uint32_t channel) const;
  /// Start the front write of `unit`, which oldest_grantable_write chose.
  void grant_write(std::uint32_t channel, std::uint64_t unit);
  /// The write-grant key grant_seq_ caches for `unit`: the enq_seq of its
  /// oldest queued write when the unit is free, kNoGrant otherwise.
  std::uint64_t grant_key(std::uint64_t unit) const {
    const UnitState& u = units_[unit];
    return u.busy || u.write_q.empty() ? kNoGrant
                                       : ops_[u.write_q.front()].enq_seq;
  }

  // Completions.
  void finish_host_op(OpId op_id);
  void complete_request_page(std::uint64_t request_index,
                             bool failed = false);
  void on_gc_read_done(OpId op_id);
  void on_gc_write_done(OpId op_id);
  void on_erase_done(OpId op_id);

  // Fault injection (no-ops while options_.faults is disabled).
  /// Seeded Bernoulli draw; never consumes randomness when p <= 0.
  bool draw_fault(double p);
  /// Did this read attempt fail ECC? (BER scales with the block's wear.)
  bool read_ecc_failed(const PageOp& op);
  /// Re-sense the page: the unit is re-occupied with escalating latency,
  /// then the data is shifted out over the bus again.
  void start_read_retry(std::uint64_t unit, OpId op_id);
  /// Retries exhausted: fail the host page or drop the GC migration.
  void handle_uncorrectable_read(OpId op_id);
  /// A write landed badly: program failure, or the target block was
  /// retired while the program was in flight. Re-places and re-dispatches.
  void handle_write_fault(OpId op_id, bool program_failed);
  /// Take a block out of rotation and migrate its survivors.
  void retire_and_rescue(std::uint64_t plane_id, std::uint32_t block);
  void start_rescue(std::uint64_t plane_id, std::uint32_t block);
  /// Destination for a job's next migration write. Rescues search the whole
  /// device; GC stays plane-local but (with faults on) falls back
  /// device-wide when retirement consumed the plane's headroom. Throws
  /// when nothing is free anywhere.
  sim::Ppn migration_target(const GcJob& job);

  // GC control.
  void maybe_start_gc(std::uint64_t plane_id);
  /// Find or grow a free slot in the GC job slab.
  std::uint32_t acquire_gc_job();
  /// One migration settled (durable or lost); advance the job when the
  /// round is drained.
  void gc_settle(std::uint32_t job_index);
  /// GC episode tail: next victim, one wear-leveling rotation, or finish.
  void finish_gc_episode(std::uint32_t job_index);
  void start_gc_round(std::uint32_t job_index);
  /// Run one reclamation round on an explicit victim (GC proper passes the
  /// greedy pick; static wear leveling passes the coldest Full block).
  void start_round_on_victim(std::uint32_t job_index, std::uint32_t victim);
  /// Queue the erase of job `job_index`'s victim block.
  void erase_victim(std::uint32_t job_index);

  /// Execution units per channel under the current granularity (cached
  /// at construction; the granularity never changes afterwards).
  std::uint64_t units_per_channel() const { return units_per_channel_; }
  std::uint64_t unit_of(const sim::PhysAddr& a) const {
    return options_.multiplane_program
               ? options_.geometry.plane_id(a)
               : options_.geometry.chip_id(a.channel, a.chip);
  }
  /// A placed op's flash address, decoded from its ppn (an erase's is its
  /// block's first page).
  sim::PhysAddr addr_of(const PageOp& op) const {
    return options_.geometry.decode(op.ppn);
  }
  std::uint64_t unit_of(const PageOp& op) const { return unit_of(addr_of(op)); }
  std::uint64_t plane_of(const PageOp& op) const {
    return options_.geometry.plane_id(addr_of(op));
  }
  std::uint32_t channel_of_unit(std::uint64_t unit) const {
    // Every stock geometry has a power-of-two unit count per channel, so
    // this division is almost always a shift.
    return static_cast<std::uint32_t>(
        unit_shift_ >= 0 ? unit >> unit_shift_
                         : unit / units_per_channel_);
  }
  /// First execution unit id on a channel.
  std::uint64_t first_unit(std::uint32_t channel) const {
    return static_cast<std::uint64_t>(channel) * units_per_channel();
  }
  /// Work queued on one execution unit: the rest of its current operation
  /// plus every waiting read, program and erase at its service time.
  Duration unit_backlog_ns(std::uint64_t unit) const;

  /// Concrete LoadView over this device's live queues — one indirect call
  /// per backlog probe instead of a type-erased std::function invocation.
  struct LoadViewImpl final : ftl::LoadView {
    explicit LoadViewImpl(const Ssd* device) : ssd(device) {}
    Duration channel_backlog(std::uint32_t channel) const override {
      return ssd->channel_backlog_ns(channel);
    }
    Duration chip_backlog(std::uint32_t global_chip) const override {
      return ssd->chip_backlog_ns(global_chip);
    }
    const Ssd* ssd;
  };

  // ssdk-snap: skip(options_): saved as the OPTS section via options(); load_device reconstructs the Ssd from load_options before load_state runs
  SsdOptions options_;
  // ssdk-snap: skip(units_per_channel_): cached from the options' conflict granularity at construction
  std::uint64_t units_per_channel_ = 1;  ///< cached from the granularity
  // ssdk-snap: skip(unit_shift_): derived log2 cache of units_per_channel_, computed at construction
  int unit_shift_ = -1;  ///< log2(units_per_channel_) when pow2, else -1
  ftl::Ftl ftl_;
  // ssdk-snap: skip(load_view_): self-referential adapter constructed in place; holds no state beyond the back-pointer
  LoadViewImpl load_view_{this};
  sim::EventQueue events_;
  SimTime now_ = 0;

  std::vector<ChannelState> channels_;
  std::vector<UnitState> units_;
  /// Per-unit write-grant key, grant_key(unit) cached densely: the
  /// arbitration argmin scans this array — one cache line per channel —
  /// without touching UnitState or the op slab. Maintained at every
  /// busy-flag and write-queue-front transition; audited against
  /// grant_key in check_invariants.
  // ssdk-snap: skip(grant_seq_): derived arbitration cache, recomputed from the unit states and op slab on load and audited by check_invariants
  std::vector<std::uint64_t> grant_seq_;
  std::vector<Duration> channel_busy_ns_;
  std::vector<Duration> unit_busy_ns_;

  std::vector<RequestState> requests_;
  /// RequestTally per request, indexed like requests_ but allocated only
  /// once a count first becomes non-zero: replays without fault injection
  /// or a write buffer never allocate it. Shorter than requests_ when the
  /// later requests never recorded a count.
  std::vector<RequestTally> request_tallies_;
  std::uint64_t arrival_cursor_ = 0;
  SimTime last_submitted_arrival_ = 0;

  /// Growth copies nothing and a fork copies only the pages in use; freed
  /// slots go on free_ops_. Slot ids are baked into queued op ids, so
  /// OPSL serializes the slot count and the free list with the slots in
  /// use.
  OpSlab ops_;
  std::vector<OpId> free_ops_;
  /// Each op slot's OOB write sequence number, drawn at placement (host
  /// and flush writes; 0 otherwise, GC writes copy their source's OOB).
  /// Indexed like ops_, and allocated only with the power model on: the
  /// seq is recorded on flash only when an OOB store exists.
  std::vector<std::uint64_t> op_oob_seqs_;
  std::uint64_t next_enq_seq_ = 0;

  std::vector<GcJob> gc_jobs_;
  std::vector<std::uint32_t> gc_job_of_plane_;  // kNoJob when idle
  // ssdk-snap: skip(gc_scratch_): scratch buffer with no meaning between events; snapshots are taken at event boundaries
  std::vector<sim::Ppn> gc_scratch_;  ///< survivor list, reused per round

  // Write buffer: dirty (tenant, lpn) keys with FIFO eviction order.
  // The FIFO may hold stale keys (trimmed entries); they are skipped
  // lazily at eviction time and compacted away when they outnumber live
  // ones. Map values are compaction's seen-marker, false outside
  // compact_buffer_fifo, so compaction needs no side allocation.
  std::unordered_map<std::uint64_t, bool> buffer_;  // key -> kept
  KeyQueue buffer_fifo_;
  std::uint64_t buffer_hits_ = 0;

  // Power-loss state. flush_barriers_, powered_off_, cut_fired_ and
  // media_lost_keys_ are serialized (PWRS section); the hook is an
  // observer like the others.
  std::vector<FlushBarrier> flush_barriers_;
  bool powered_off_ = false;
  bool cut_fired_ = false;  ///< the scheduled cut fires at most once
  std::vector<std::uint64_t> media_lost_keys_;

  // Admission scheduler (serialized in the SCHD section; a plain value,
  // so fork()'s memberwise copy copies its lanes).
  sched::Scheduler sched_;
  // ssdk-snap: skip(sched_pumping_): re-entrancy guard, always false at the event boundaries where snapshots are taken
  bool sched_pumping_ = false;  ///< re-entrancy guard for pump_scheduler

  sim::MetricsCollector metrics_;
  // ssdk-snap: skip(arrival_hook_): observer callback, runtime wiring reinstalled by the owner after load
  ArrivalHook arrival_hook_;
  // ssdk-snap: skip(completion_hook_): observer callback, runtime wiring reinstalled by the owner after load
  CompletionHook completion_hook_;
  // ssdk-snap: skip(power_hook_): observer callback, runtime wiring reinstalled by the owner after load
  PowerHook power_hook_;
  // ssdk-snap: skip(tracer_): non-owning observer, rewired by the owner; null = telemetry off
  telemetry::Tracer* tracer_ = nullptr;  ///< null = telemetry off

  // ssdk-snap: skip(page_xfer_ns_): derived from timing.xfer_ns_per_byte and the page size at construction
  Duration page_xfer_ns_ = 0;

  // Fault injection: one seeded per-device stream, consumed in event
  // order, so a fixed (workload, seed) reproduces the fault sequence.
  Rng fault_rng_;
  // ssdk-snap: skip(faults_on_): derived at construction from whether any fault-model rate is non-zero
  bool faults_on_ = false;

  // Periodic self-audit cadence (runtime config, like the hooks: not
  // serialized, copied by fork's memberwise copy).
  // ssdk-snap: skip(audit_interval_): runtime debug config, reapplied by the owner after load
  std::uint64_t audit_interval_ = 0;
  // ssdk-snap: skip(arrivals_since_audit_): debug-audit phase counter; restarting the cadence after load is harmless
  std::uint64_t arrivals_since_audit_ = 0;
};

}  // namespace ssdk::ssd
