#include "sim/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace ssdk::sim {

TenantSummary TenantMetrics::summary() const {
  TenantSummary s;
  s.read_sum_us = read_latency_us.sum();
  s.write_sum_us = write_latency_us.sum();
  s.reads = read_latency_us.count();
  s.writes = write_latency_us.count();
  s.read_retries = read_retries;
  s.uncorrectable_reads = uncorrectable_reads;
  s.program_retries = program_retries;
  s.retry_wait_ns = retry_wait_ns;
  s.acked_volatile_lost = acked_volatile_lost;
  s.slo_violations = slo_violations;
  return s;
}

TenantMetrics& MetricsCollector::slot(TenantId id) {
  if (id == kInternalTenant) {
    internal_present_ = true;
    return internal_;
  }
  if (id >= dense_.size()) {
    dense_.resize(id + 1);
    present_.resize(id + 1, 0);
  }
  present_[id] = 1;
  return dense_[id];
}

void MetricsCollector::record(const Completion& c) {
  if (c.type == OpType::kTrim) {
    ++counters_.host_trims;
    return;
  }
  if (c.type == OpType::kFlush) {
    ++counters_.host_flushes;
    return;
  }
  if (c.type == OpType::kRead) {
    ++counters_.host_reads;
  } else {
    ++counters_.host_writes;
  }
  if (c.arrival < warmup_ns_) return;  // warmup: counted, not sampled
  auto& t = slot(c.tenant);
  const double us = to_us(c.latency());
  if (c.type == OpType::kRead) {
    t.read_latency_us.add(us);
  } else {
    t.write_latency_us.add(us);
  }
  if (c.tenant != kInternalTenant && c.tenant < slo_target_us_.size()) {
    const std::uint64_t target = slo_target_us_[c.tenant];
    if (target != 0 && us > static_cast<double>(target)) ++t.slo_violations;
  }
}

void MetricsCollector::set_slo_target_us(TenantId tenant, std::uint64_t us) {
  if (tenant == kInternalTenant) return;  // GC traffic has no SLO
  if (tenant >= slo_target_us_.size()) {
    if (us == 0) return;
    slo_target_us_.resize(tenant + 1, 0);
  }
  slo_target_us_[tenant] = us;
}

const TenantMetrics& MetricsCollector::tenant(TenantId id) const {
  if (!has_tenant(id)) {
    throw std::out_of_range("metrics: unknown tenant " + std::to_string(id));
  }
  return id == kInternalTenant ? internal_ : dense_[id];
}

void MetricsCollector::record_read_retry(TenantId tenant, Duration extra_ns) {
  ++counters_.read_retries;
  counters_.retry_wait_ns += extra_ns;
  auto& t = slot(tenant);
  ++t.read_retries;
  t.retry_wait_ns += extra_ns;
}

void MetricsCollector::record_uncorrectable_read(TenantId tenant) {
  ++counters_.uncorrectable_reads;
  ++slot(tenant).uncorrectable_reads;
}

void MetricsCollector::record_program_retry(TenantId tenant) {
  ++counters_.program_fails;
  ++slot(tenant).program_retries;
}

void MetricsCollector::record_volatile_loss(TenantId tenant,
                                            std::uint64_t pages) {
  counters_.volatile_pages_lost += pages;
  slot(tenant).acked_volatile_lost += pages;
}

std::map<TenantId, TenantMetrics> MetricsCollector::all_tenants() const {
  std::map<TenantId, TenantMetrics> out;
  for_each_tenant([&out](TenantId id, const TenantMetrics& t) {
    out.emplace(id, t);
  });
  return out;
}

std::map<TenantId, TenantSummary> MetricsCollector::summaries() const {
  std::map<TenantId, TenantSummary> out;
  for_each_tenant([&out](TenantId id, const TenantMetrics& t) {
    out.emplace(id, t.summary());
  });
  return out;
}

TenantMetrics MetricsCollector::aggregate() const {
  TenantMetrics agg;
  for_each_tenant([&agg](TenantId, const TenantMetrics& t) {
    agg.read_latency_us.merge(t.read_latency_us);
    agg.write_latency_us.merge(t.write_latency_us);
    agg.read_retries += t.read_retries;
    agg.uncorrectable_reads += t.uncorrectable_reads;
    agg.program_retries += t.program_retries;
    agg.retry_wait_ns += t.retry_wait_ns;
    agg.acked_volatile_lost += t.acked_volatile_lost;
    agg.slo_violations += t.slo_violations;
  });
  return agg;
}

LatencySums MetricsCollector::aggregate_sums() const {
  LatencySums out;
  for_each_tenant([&out](TenantId, const TenantMetrics& t) {
    out.read_sum_us += t.read_latency_us.sum();
    out.write_sum_us += t.write_latency_us.sum();
    out.reads += t.read_latency_us.count();
    out.writes += t.write_latency_us.count();
  });
  return out;
}

double MetricsCollector::aggregate_percentile(OpType type, double p) const {
  const auto samples_of = [type](const TenantMetrics& t) -> const SampleSet& {
    return type == OpType::kRead ? t.read_latency_us : t.write_latency_us;
  };
  std::size_t n = 0;
  double max = 0.0;
  for_each_tenant([&](TenantId, const TenantMetrics& t) {
    const SampleSet& s = samples_of(t);
    if (s.empty()) return;
    max = n == 0 ? s.max() : std::max(max, s.max());
    n += s.count();
  });
  if (n == 0) return 0.0;
  std::vector<double> merged;
  merged.reserve(n);
  for_each_tenant([&](TenantId, const TenantMetrics& t) {
    const std::vector<double>& v = samples_of(t).samples();
    merged.insert(merged.end(), v.begin(), v.end());
  });
  return select_percentile(merged, p, max);
}

double MetricsCollector::conflict_rate() const {
  if (counters_.page_ops == 0) return 0.0;
  return static_cast<double>(counters_.conflicts) /
         static_cast<double>(counters_.page_ops);
}

namespace {

void save_tenant(snapshot::StateWriter& w, const TenantMetrics& t) {
  w.vec_f64(t.read_latency_us.samples());
  w.vec_f64(t.write_latency_us.samples());
  w.u64(t.read_retries);
  w.u64(t.uncorrectable_reads);
  w.u64(t.program_retries);
  w.u64(t.retry_wait_ns);
  w.u64(t.acked_volatile_lost);
  w.u64(t.slo_violations);
}

void load_tenant(snapshot::StateReader& r, TenantMetrics& t) {
  t.read_latency_us.restore(r.vec_f64());
  t.write_latency_us.restore(r.vec_f64());
  t.read_retries = r.u64();
  t.uncorrectable_reads = r.u64();
  t.program_retries = r.u64();
  t.retry_wait_ns = r.u64();
  t.acked_volatile_lost = r.u64();
  t.slo_violations = r.u64();
}

void save_counters(snapshot::StateWriter& w, const DeviceCounters& c) {
  w.u64(c.host_reads);
  w.u64(c.host_writes);
  w.u64(c.host_trims);
  w.u64(c.gc_migrations);
  w.u64(c.erases);
  w.u64(c.conflicts);
  w.u64(c.page_ops);
  w.u64(c.bus_busy_ns);
  w.u64(c.chip_busy_ns);
  w.u64(c.read_wait_ns);
  w.u64(c.write_wait_ns);
  w.u64(c.read_ops_started);
  w.u64(c.write_ops_started);
  w.u64(c.read_retries);
  w.u64(c.uncorrectable_reads);
  w.u64(c.program_fails);
  w.u64(c.erase_fails);
  w.u64(c.retired_blocks);
  w.u64(c.rescue_migrations);
  w.u64(c.lost_pages);
  w.u64(c.retry_wait_ns);
  w.u64(c.failed_requests);
  w.u64(c.host_flushes);
  w.u64(c.power_cycles);
  w.u64(c.mount_time_ns);
  w.u64(c.mount_scan_reads);
  w.u64(c.torn_pages_discarded);
  w.u64(c.unknown_blocks_recovered);
  w.u64(c.interrupted_requests);
  w.u64(c.volatile_pages_lost);
}

void load_counters(snapshot::StateReader& r, DeviceCounters& c) {
  c.host_reads = r.u64();
  c.host_writes = r.u64();
  c.host_trims = r.u64();
  c.gc_migrations = r.u64();
  c.erases = r.u64();
  c.conflicts = r.u64();
  c.page_ops = r.u64();
  c.bus_busy_ns = r.u64();
  c.chip_busy_ns = r.u64();
  c.read_wait_ns = r.u64();
  c.write_wait_ns = r.u64();
  c.read_ops_started = r.u64();
  c.write_ops_started = r.u64();
  c.read_retries = r.u64();
  c.uncorrectable_reads = r.u64();
  c.program_fails = r.u64();
  c.erase_fails = r.u64();
  c.retired_blocks = r.u64();
  c.rescue_migrations = r.u64();
  c.lost_pages = r.u64();
  c.retry_wait_ns = r.u64();
  c.failed_requests = r.u64();
  c.host_flushes = r.u64();
  c.power_cycles = r.u64();
  c.mount_time_ns = r.u64();
  c.mount_scan_reads = r.u64();
  c.torn_pages_discarded = r.u64();
  c.unknown_blocks_recovered = r.u64();
  c.interrupted_requests = r.u64();
  c.volatile_pages_lost = r.u64();
}

}  // namespace

void MetricsCollector::save_state(snapshot::StateWriter& w) const {
  w.tag("METR");
  w.u64(warmup_ns_);
  save_counters(w, counters_);
  w.u64(dense_.size());
  for (std::size_t id = 0; id < dense_.size(); ++id) {
    w.u8(present_[id]);
    save_tenant(w, dense_[id]);
  }
  w.boolean(internal_present_);
  save_tenant(w, internal_);
}

void MetricsCollector::load_state(snapshot::StateReader& r) {
  r.tag("METR");
  warmup_ns_ = r.u64();
  load_counters(r, counters_);
  const std::uint64_t n = r.checked_count(1);
  dense_.assign(n, TenantMetrics{});
  present_.assign(n, 0);
  for (std::uint64_t id = 0; id < n; ++id) {
    present_[id] = r.u8();
    load_tenant(r, dense_[id]);
  }
  internal_present_ = r.boolean();
  internal_ = TenantMetrics{};
  load_tenant(r, internal_);
}

}  // namespace ssdk::sim
