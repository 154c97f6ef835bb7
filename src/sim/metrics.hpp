// Per-tenant latency accounting and device-level counters — the quantities
// every figure in the paper is built from.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/request.hpp"
#include "snapshot/archive.hpp"
#include "util/stats.hpp"

namespace ssdk::sim {

/// Latency sums and counts, device-wide (MetricsCollector::aggregate_sums)
/// or per tenant (TenantSummary). Everything the keeper's what-if scoring,
/// the label sweep's total_us and a run's per-tenant table need, gathered
/// in O(tenants) from the SampleSets' running sums — aggregate() by
/// contrast copies every latency sample. The averages divide the same sum
/// by the same count as SampleSet::mean(), so they agree bit for bit.
struct LatencySums {
  double read_sum_us = 0.0;
  double write_sum_us = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  double avg_read_us() const {
    return reads ? read_sum_us / static_cast<double>(reads) : 0.0;
  }
  double avg_write_us() const {
    return writes ? write_sum_us / static_cast<double>(writes) : 0.0;
  }
  double total_us() const { return avg_read_us() + avg_write_us(); }
};

/// What a finished run keeps per tenant (core::RunResult::per_tenant):
/// read/write counts and latency sums plus the reliability and SLO
/// counters, without the samples. total_us() is bit-identical to the
/// TenantMetrics it was taken from; distributions (percentiles) come from
/// the device's MetricsCollector.
struct TenantSummary : LatencySums {
  std::uint64_t read_retries = 0;
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t program_retries = 0;
  Duration retry_wait_ns = 0;
  std::uint64_t acked_volatile_lost = 0;
  std::uint64_t slo_violations = 0;
};

/// Latency statistics for one tenant, split by operation type, plus the
/// tenant's share of fault-handling traffic (all zero with the fault model
/// disabled). Retry time is already inside the latency samples — the
/// separate counters attribute *how much* of a tenant's latency was
/// error-handling, which is what the keeper's per-tenant accounting needs.
struct TenantMetrics {
  SampleSet read_latency_us;
  SampleSet write_latency_us;

  // --- reliability (fault model) ---
  std::uint64_t read_retries = 0;          ///< retry attempts issued
  std::uint64_t uncorrectable_reads = 0;   ///< pages failing all retries
  std::uint64_t program_retries = 0;       ///< failed programs re-placed
  Duration retry_wait_ns = 0;  ///< extra sensing + re-transfer time
  /// Acked-volatile pages this tenant lost to power cuts: dirty write-buffer
  /// residents at the instant of a power_off() (zero without a power model).
  std::uint64_t acked_volatile_lost = 0;
  /// Measured completions (post-warmup reads/writes) slower than the
  /// tenant's latency SLO target — zero unless the run's scheduler config
  /// carries a slo_target_us for this tenant.
  std::uint64_t slo_violations = 0;

  double avg_read_us() const { return read_latency_us.mean(); }
  double avg_write_us() const { return write_latency_us.mean(); }
  /// The paper's "total response latency" is the sum of the average read
  /// and average write response latencies (Section III.B).
  double total_us() const { return avg_read_us() + avg_write_us(); }

  /// Counts, sums and counters, in O(1).
  TenantSummary summary() const;
};

/// Device-level health/contention counters.
struct DeviceCounters {
  std::uint64_t host_reads = 0;
  std::uint64_t host_writes = 0;
  std::uint64_t host_trims = 0;
  std::uint64_t gc_migrations = 0;
  std::uint64_t erases = 0;
  /// Page ops that found their target chip or channel busy on dispatch —
  /// the paper's "access conflicts".
  std::uint64_t conflicts = 0;
  std::uint64_t page_ops = 0;
  Duration bus_busy_ns = 0;   ///< summed over channels
  Duration chip_busy_ns = 0;  ///< summed over chips
  /// Queueing decomposition: time page ops spent waiting for their first
  /// resource grant, split by class. Averages = wait_ns / ops_started.
  Duration read_wait_ns = 0;
  Duration write_wait_ns = 0;
  std::uint64_t read_ops_started = 0;
  std::uint64_t write_ops_started = 0;
  // --- reliability (fault model; all zero when disabled) ---
  std::uint64_t read_retries = 0;
  std::uint64_t uncorrectable_reads = 0;  ///< pages failing every retry
  std::uint64_t program_fails = 0;
  std::uint64_t erase_fails = 0;
  std::uint64_t retired_blocks = 0;
  std::uint64_t rescue_migrations = 0;  ///< pages moved off retiring blocks
  /// GC/rescue migration reads that were themselves uncorrectable — the
  /// simulated device's (RAID-less) data-loss count.
  std::uint64_t lost_pages = 0;
  Duration retry_wait_ns = 0;  ///< summed retry sensing + re-transfer time
  /// Host requests aborted because the device ran out of space.
  std::uint64_t failed_requests = 0;
  // --- power loss and recovery (all zero without a power model) ---
  std::uint64_t host_flushes = 0;    ///< completed flush/barrier requests
  std::uint64_t power_cycles = 0;    ///< power_off()/power_on() cycles
  Duration mount_time_ns = 0;        ///< summed modeled mount (scan) time
  std::uint64_t mount_scan_reads = 0;      ///< OOB scan page reads at mount
  std::uint64_t torn_pages_discarded = 0;  ///< in-flight programs discarded
  std::uint64_t unknown_blocks_recovered = 0;  ///< in-flight erases redone
  std::uint64_t interrupted_requests = 0;  ///< in-flight host requests cut
  std::uint64_t volatile_pages_lost = 0;   ///< buffered pages lost at cuts

  double avg_read_wait_us() const {
    return read_ops_started
               ? static_cast<double>(read_wait_ns) /
                     static_cast<double>(read_ops_started) / 1e3
               : 0.0;
  }
  double avg_write_wait_us() const {
    return write_ops_started
               ? static_cast<double>(write_wait_ns) /
                     static_cast<double>(write_ops_started) / 1e3
               : 0.0;
  }
};

/// Tenant slots are a dense vector indexed by tenant id — `record` runs
/// once per host completion, and a map lookup there was one of the larger
/// costs on the simulator hot path. Host tenant ids are small and
/// contiguous (0..3 in the paper); kInternalTenant (GC traffic touched by
/// the fault model) gets its own out-of-band slot so the dense array never
/// grows to 2^32 entries.
class MetricsCollector {
 public:
  void record(const Completion& c);

  /// Completions whose request arrived before `t` are excluded from the
  /// latency samples (counters still accumulate) — a warmup window so
  /// steady-state measurements aren't diluted by the empty-device start.
  void set_warmup_ns(SimTime t) { warmup_ns_ = t; }

  /// Latency SLO target for `tenant` (microseconds, arrival to
  /// completion); measured completions slower than it bump the tenant's
  /// slo_violations. 0 clears the target. Construction-time config like
  /// the warmup window — NOT serialized; a restored device re-arms it
  /// from its options.
  void set_slo_target_us(TenantId tenant, std::uint64_t us);

  void count_conflict() { ++counters_.conflicts; }
  DeviceCounters& counters() { return counters_; }
  const DeviceCounters& counters() const { return counters_; }

  // --- reliability events (fault model) ----------------------------------
  /// One read-retry attempt for `tenant`; `extra_ns` is the added sensing
  /// + re-transfer time the retry will occupy.
  void record_read_retry(TenantId tenant, Duration extra_ns);
  /// One page of `tenant` exhausted every retry.
  void record_uncorrectable_read(TenantId tenant);
  /// One failed program of `tenant` was re-placed.
  void record_program_retry(TenantId tenant);
  /// `pages` acked-volatile buffered pages of `tenant` lost to a power cut.
  void record_volatile_loss(TenantId tenant, std::uint64_t pages);

  const TenantMetrics& tenant(TenantId id) const;
  bool has_tenant(TenantId id) const {
    if (id == kInternalTenant) return internal_present_;
    return id < present_.size() && present_[id] != 0;
  }
  /// Tenants that recorded at least one sample or reliability event, keyed
  /// by id (materialized from the dense slots; ordered as before). Copies
  /// every sample; summaries() is the O(tenants) view.
  std::map<TenantId, TenantMetrics> all_tenants() const;

  /// The same tenants as all_tenants(), as sample-free summaries.
  std::map<TenantId, TenantSummary> summaries() const;

  /// Aggregate over every tenant (used when normalizing Figure 2/5 bars).
  TenantMetrics aggregate() const;

  /// O(tenants) latency sums/counts; same totals aggregate() would report,
  /// without touching the per-sample storage.
  LatencySums aggregate_sums() const;

  /// Device-wide percentile of the read (`type` kRead) or write (any
  /// other type) latencies; 0 when there are none. Selects in place on one
  /// merged copy reserved to the exact sample count: the value
  /// aggregate()'s SampleSet::percentile reports, which needs the merged
  /// set plus a selection copy of it.
  double aggregate_percentile(OpType type, double p) const;

  /// Conflict rate = conflicts / page ops dispatched.
  double conflict_rate() const;

  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  TenantMetrics& slot(TenantId id);

  /// Visit every present tenant slot as f(id, metrics), in id order with
  /// kInternalTenant last — the order every aggregate adds in.
  template <typename F>
  void for_each_tenant(F&& f) const {
    for (TenantId id = 0; id < dense_.size(); ++id) {
      if (present_[id]) f(id, dense_[id]);
    }
    if (internal_present_) f(kInternalTenant, internal_);
  }

  std::vector<TenantMetrics> dense_;      ///< indexed by tenant id
  std::vector<std::uint8_t> present_;     ///< parallel touched flags
  TenantMetrics internal_;                ///< kInternalTenant slot
  bool internal_present_ = false;
  DeviceCounters counters_;
  SimTime warmup_ns_ = 0;
  /// Per-tenant SLO targets (us), dense by tenant id; 0 = no target.
  /// Config, not device state: excluded from save_state/load_state.
  // ssdk-snap: skip(slo_target_us_): configuration (OPTS sched.shares carries the targets), reapplied by the owner after load
  std::vector<std::uint64_t> slo_target_us_;
};

}  // namespace ssdk::sim
