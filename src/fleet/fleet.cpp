#include "fleet/fleet.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/features.hpp"
#include "core/trial.hpp"
#include "ftl/ftl.hpp"
#include "sched/fairness.hpp"
#include "telemetry/tracer.hpp"

namespace ssdk::fleet {

namespace {

constexpr int kSlotFree = -1;
/// A slot a tenant migrated out of. Never reused: keeping (device, slot)
/// unique per tenant lets the final report attribute a slot's cumulative
/// metrics to exactly one tenant.
constexpr int kSlotDead = -2;

constexpr std::uint32_t kBulkRequestPages = 16;
/// Candidate destinations trialed per migration (coldest first).
constexpr std::size_t kCandidates = 3;
/// Requests replayed per what-if trial (victim + destination natives).
constexpr std::size_t kTrialRequests = 1500;
/// Cap on the copy traffic injected on the destination when a migration
/// commits (pages). The modeled cost reports the full footprint; the
/// injected bulk load is capped so one migration cannot dominate an epoch.
constexpr std::uint64_t kBulkPagesCap = 1024;

/// Mutable per-device state owned by run_fleet. Construction and epoch
/// workers touch only their own entry. Between epochs, consolidation's
/// trial tasks only read device state: each forks a different device (the
/// source or one distinct candidate). The serial rest of consolidation is
/// the only cross-device writer. The parallel_for barriers between these
/// phases are the sole synchronization — owner-partitioned state, no
/// mutexes, so thread-safety annotations (SSDK_GUARDED_BY) do not apply
/// here; the 1/4/16-worker fingerprint and migration-record tests and the
/// TSan preset are what police this discipline.
struct DeviceState {
  std::unique_ptr<ssd::Ssd> device;
  std::unique_ptr<telemetry::Tracer> tracer;
  std::unique_ptr<core::SsdKeeper> keeper;
  bool faulty = false;
  /// slot -> fleet tenant id, kSlotFree, or kSlotDead.
  std::array<int, kMaxSlots> slot_tenant{};
  /// Logical pages each slot's tenant has written so far (from the
  /// generated traffic — deterministic, no device introspection needed).
  std::array<std::uint64_t, kMaxSlots> footprint_pages{};
  /// Write pages per slot in the most recent epoch (victim selection).
  std::array<std::uint64_t, kMaxSlots> epoch_write_pages{};
  /// Migration copy traffic to replay at the next epoch start.
  std::vector<sim::IoRequest> pending_bulk;
  std::uint64_t next_request_id = 0;
  std::vector<telemetry::RollupSummary> epoch_summaries;
  /// The device aborted with DeviceFullError; it stops receiving traffic
  /// and drops out of consolidation. The partial result is kept.
  bool full = false;
  core::RunResult full_result;
};

/// Where one tenant lives and has lived.
struct TenantState {
  std::uint32_t device = 0;
  std::uint32_t slot = 0;
  std::uint32_t initial_device = 0;
  std::uint32_t migrations = 0;
  /// Every (device, slot) this tenant occupied, in order. Metrics of all
  /// segments merge into the tenant's fleet-wide latency distribution.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> segments;
};

std::uint64_t epoch_seed(std::uint64_t fleet_seed, std::uint32_t tenant,
                         std::uint32_t epoch) {
  // Distinct co-prime strides keep (tenant, epoch) streams disjoint for
  // any realistic fleet size; the +1 keeps seed 0 out of the generator.
  return fleet_seed * 1000003ULL +
         static_cast<std::uint64_t>(tenant) * 1009ULL + epoch + 1;
}

void validate(const FleetConfig& config,
              std::span<const TenantSpec> tenants) {
  if (config.devices == 0) {
    throw std::invalid_argument("fleet: devices must be > 0");
  }
  if (config.slots_per_device == 0 ||
      config.slots_per_device > kMaxSlots) {
    throw std::invalid_argument("fleet: slots_per_device must be 1..4");
  }
  if (config.epochs == 0) {
    throw std::invalid_argument("fleet: epochs must be > 0");
  }
  if (config.epoch_ns <= 0) {
    throw std::invalid_argument("fleet: epoch_ns must be > 0");
  }
  if (tenants.empty()) {
    throw std::invalid_argument("fleet: no tenants");
  }
  // Slots store tenant ids and the run indexes specs by them.
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].id != i) {
      throw std::invalid_argument("fleet: tenants[i].id must equal i");
    }
  }
  // Migrations need headroom (a never-used destination slot); placement
  // capacity itself is checked by the policy.
}

/// FNV-1a accumulator over the result's numeric fields.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(std::uint32_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
};

std::vector<sim::IoRequest> records_to_requests(
    std::span<const trace::TraceRecord> records, sim::TenantId slot) {
  std::vector<sim::IoRequest> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    sim::IoRequest req;
    req.tenant = slot;
    req.type = r.type;
    req.lpn = r.lpn;
    req.page_count = r.pages;
    req.arrival = r.arrival;
    out.push_back(req);
  }
  return out;
}

/// Merge per-slot request vectors by arrival. Appending in slot order and
/// stable-sorting keeps ties in slot order — a fixed rule, so the merged
/// stream is identical on every run.
void sort_by_arrival(std::vector<sim::IoRequest>& requests) {
  std::stable_sort(requests.begin(), requests.end(),
                   [](const sim::IoRequest& a, const sim::IoRequest& b) {
                     return a.arrival < b.arrival;
                   });
}

/// One epoch's traffic of every live slot of a device, merged — the
/// epoch loop's input and the what-if trials' preview stream. Each
/// request's tenant is its slot.
std::vector<sim::IoRequest> epoch_traffic(const DeviceState& st,
                                          std::span<const TenantSpec> specs,
                                          const FleetConfig& config,
                                          std::uint32_t epoch) {
  std::vector<sim::IoRequest> traffic;
  for (std::uint32_t s = 0; s < config.slots_per_device; ++s) {
    if (st.slot_tenant[s] < 0) continue;
    const auto& spec = specs[static_cast<std::size_t>(st.slot_tenant[s])];
    const auto records =
        epoch_records(spec, config.seed, epoch, config.epoch_ns);
    auto reqs = records_to_requests(records, s);
    traffic.insert(traffic.end(), reqs.begin(), reqs.end());
  }
  sort_by_arrival(traffic);
  return traffic;
}

/// The device's lowest never-used slot, or kMaxSlots when it has none.
std::uint32_t first_free_slot(const DeviceState& st, std::uint32_t slots) {
  for (std::uint32_t s = 0; s < slots; ++s) {
    if (st.slot_tenant[s] == kSlotFree) return s;
  }
  return kMaxSlots;
}

void truncate_trial(std::vector<sim::IoRequest>& trial) {
  if (trial.size() > kTrialRequests) trial.resize(kTrialRequests);
  for (std::size_t i = 0; i < trial.size(); ++i) trial[i].id = i;
}

/// Advance one device through one epoch. Runs on a pool worker; touches
/// only this device's state.
void run_epoch_on_device(DeviceState& st,
                         std::span<const TenantSpec> specs,
                         const FleetConfig& config, std::uint32_t epoch) {
  st.epoch_write_pages = {};
  if (st.full) {
    st.epoch_summaries.emplace_back();  // all-zero: never hot, never a target
    return;
  }
  st.tracer->clear();

  const auto traffic = epoch_traffic(st, specs, config, epoch);
  for (const auto& r : traffic) {
    if (r.type == sim::OpType::kWrite) {
      st.epoch_write_pages[r.tenant] += r.page_count;
      st.footprint_pages[r.tenant] += r.page_count;
    }
  }
  // Pending migration copies go first: ties at one arrival keep them
  // ahead of the slots' traffic, which keeps its own order.
  std::vector<sim::IoRequest> requests = std::move(st.pending_bulk);
  st.pending_bulk.clear();
  requests.insert(requests.end(), traffic.begin(), traffic.end());
  sort_by_arrival(requests);
  for (auto& r : requests) r.id = st.next_request_id++;

  try {
    st.device->submit(requests);
    st.device->run_to_completion();
  } catch (const ftl::DeviceFullError& e) {
    st.full = true;
    st.full_result = core::summarize_device_full(*st.device, e, "fleet");
  }

  const telemetry::RollupConfig rollup{
      .channels = st.device->options().geometry.channels};
  const auto events = st.tracer->events();
  st.epoch_summaries.push_back(
      telemetry::summarize_rollup(telemetry::build_rollup(events, rollup)));
}

/// Consolidation step at the boundary after `epoch`: detect hot devices,
/// pick victims, score destinations via fork trials, commit the winning
/// moves. Only one victim's trials fan out on the pool; everything else
/// is serial. All inputs are merged per-device state in device-id order
/// and trial scores merge by index, so the decisions are independent of
/// worker scheduling.
void consolidate(ThreadPool& pool, std::vector<DeviceState>& states,
                 std::vector<TenantState>& tenants,
                 std::span<const TenantSpec> specs,
                 const FleetConfig& config, std::uint32_t epoch,
                 std::vector<MigrationRecord>& out) {
  const std::uint32_t next_epoch = epoch + 1;
  std::vector<telemetry::RollupSummary> summaries;
  summaries.reserve(states.size());
  for (const auto& st : states) summaries.push_back(st.epoch_summaries.back());
  const auto hot = detect_hot_devices(summaries, config.migration);

  std::uint32_t committed = 0;
  for (std::uint32_t d = 0;
       d < states.size() && committed < config.migration.max_per_epoch; ++d) {
    if (!hot[d] || states[d].full) continue;
    DeviceState& src = states[d];

    // Victim: the slot that wrote the most pages last epoch — writes are
    // the channel-monopolizing traffic class, so shedding the heaviest
    // writer relieves the most contention per move.
    int victim_slot = -1;
    std::uint64_t victim_writes = 0;
    std::uint32_t residents = 0;
    for (std::uint32_t s = 0; s < config.slots_per_device; ++s) {
      if (src.slot_tenant[s] < 0) continue;
      ++residents;
      if (victim_slot < 0 || src.epoch_write_pages[s] > victim_writes) {
        victim_slot = static_cast<int>(s);
        victim_writes = src.epoch_write_pages[s];
      }
    }
    if (residents < 2 || victim_slot < 0) continue;  // nothing to shed
    const auto vslot = static_cast<std::uint32_t>(victim_slot);
    const auto tenant_id =
        static_cast<std::uint32_t>(src.slot_tenant[vslot]);
    const TenantSpec& vspec = specs[tenant_id];

    // Candidate destinations: cold devices with a never-used slot,
    // coldest first (ties toward the lower device id).
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t c = 0; c < states.size(); ++c) {
      if (c == d || hot[c] || states[c].full) continue;
      if (first_free_slot(states[c], config.slots_per_device) < kMaxSlots) {
        candidates.push_back(c);
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return summaries[a].heat() < summaries[b].heat();
                     });
    if (candidates.size() > kCandidates) candidates.resize(kCandidates);
    if (candidates.empty()) continue;

    const auto victim_records =
        epoch_records(vspec, config.seed, next_epoch, config.epoch_ns);

    // Trial 0 ("stay"): the source replays its own next epoch unchanged.
    // Trial i > 0: candidate i-1 replays its next epoch plus the victim's.
    // Each task forks a different device and writes only its own score.
    const auto scores =
        core::run_trials(&pool, candidates.size() + 1, [&](std::size_t i) {
          const DeviceState& st = i == 0 ? src : states[candidates[i - 1]];
          auto trial = epoch_traffic(st, specs, config, next_epoch);
          if (i > 0) {
            auto victim_reqs = records_to_requests(
                victim_records, first_free_slot(st, config.slots_per_device));
            trial.insert(trial.end(), victim_reqs.begin(), victim_reqs.end());
            sort_by_arrival(trial);
          }
          truncate_trial(trial);
          return score_placement(*st.device, trial);
        });
    // Staying is trial 0 and ties keep the lower index, so a move must
    // measure strictly better than staying.
    const std::size_t best = core::first_argmin(scores);
    if (best == 0) continue;
    const std::uint32_t best_device = candidates[best - 1];
    // The slot its trial previewed: no slot has changed since.
    const std::uint32_t best_slot =
        first_free_slot(states[best_device], config.slots_per_device);

    // Commit: retire the source slot, occupy the destination slot, and
    // queue the (capped) copy traffic for the next epoch start.
    MigrationRecord record;
    record.epoch = epoch;
    record.tenant = tenant_id;
    record.from_device = d;
    record.from_slot = vslot;
    record.stay_score_us = scores[0];
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      record.trials.push_back({candidates[i], scores[i + 1]});
    }
    record.to_device = best_device;
    record.to_slot = best_slot;
    record.move_score_us = scores[best];
    record.footprint_pages = src.footprint_pages[vslot];
    record.injected_pages =
        std::min<std::uint64_t>(record.footprint_pages, kBulkPagesCap);
    const auto& opts = states[best_device].device->options();
    record.modeled_cost_ns =
        static_cast<Duration>(record.footprint_pages) *
        opts.timing.write_service_ns(opts.geometry);

    DeviceState& dst = states[best_device];
    src.slot_tenant[vslot] = kSlotDead;
    dst.slot_tenant[best_slot] = static_cast<int>(tenant_id);
    dst.footprint_pages[best_slot] = record.footprint_pages;

    const SimTime bulk_at =
        static_cast<SimTime>(next_epoch) * config.epoch_ns;
    const std::uint64_t space = vspec.traffic.address_space_pages;
    std::uint64_t remaining = record.injected_pages;
    std::uint64_t lpn = 0;
    while (remaining > 0) {
      sim::IoRequest req;
      req.tenant = best_slot;
      req.type = sim::OpType::kWrite;
      req.lpn = lpn % space;
      req.page_count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBulkRequestPages, remaining));
      req.arrival = bulk_at;
      dst.pending_bulk.push_back(req);
      lpn += req.page_count;
      remaining -= req.page_count;
    }

    TenantState& ts = tenants[tenant_id];
    ts.device = best_device;
    ts.slot = best_slot;
    ++ts.migrations;
    ts.segments.emplace_back(best_device, best_slot);

    out.push_back(std::move(record));
    ++committed;
  }
}

}  // namespace

std::vector<trace::TraceRecord> epoch_records(const TenantSpec& spec,
                                              std::uint64_t fleet_seed,
                                              std::uint32_t epoch,
                                              Duration epoch_ns) {
  trace::SyntheticSpec s = spec.traffic;
  s.seed = epoch_seed(fleet_seed, spec.id, epoch);
  trace::Workload records = trace::generate_synthetic(s);
  std::erase_if(records, [epoch_ns](const trace::TraceRecord& r) {
    return r.arrival >= epoch_ns;
  });
  const SimTime base = static_cast<SimTime>(epoch) * epoch_ns;
  for (auto& r : records) r.arrival += base;
  return records;
}

std::vector<TenantSpec> make_tenant_specs(std::uint32_t count,
                                          std::uint32_t writer_stride,
                                          Duration epoch_ns) {
  const double epoch_s = static_cast<double>(epoch_ns) / 1e9;
  std::vector<TenantSpec> specs;
  specs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TenantSpec spec;
    spec.id = i;
    trace::SyntheticSpec& t = spec.traffic;
    if (writer_stride > 0 && i % writer_stride == 0) {
      // Heavy sequential writer — the tenant class that saturates shared
      // channels and forces consolidation decisions.
      t.name = "writer";
      t.write_fraction = 0.9;
      t.intensity_rps = 9'000.0;
      t.mean_request_pages = 4.0;
      t.sequential_fraction = 0.7;
    } else if (i % 2 == 1) {
      t.name = "reader";
      t.write_fraction = 0.1;
      t.intensity_rps = 6'000.0;
      t.mean_request_pages = 2.0;
    } else {
      t.name = "mixed";
      t.write_fraction = 0.4;
      t.intensity_rps = 4'000.0;
      t.mean_request_pages = 2.0;
    }
    // ~1.5x the expected count so the epoch window is always filled; the
    // overhang past epoch_ns is clipped by epoch_records.
    t.request_count = static_cast<std::uint64_t>(
        t.intensity_rps * epoch_s * 1.5) + 16;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::uint64_t FleetResult::fingerprint() const {
  Fnv f;
  f.mix(devices);
  f.mix(tenants);
  f.mix(epochs);
  f.mix(seed);
  f.mix(total_requests);
  f.mix(aggregate_p99_read_us);
  f.mix(aggregate_p99_write_us);
  f.mix(aggregate_total_us);
  f.mix(mean_slowdown);
  f.mix(jain_index);
  f.mix(worst_slowdown);
  for (const auto& d : device_results) {
    f.mix(d.device);
    f.mix(d.faulty);
    f.mix(d.run.avg_read_us);
    f.mix(d.run.avg_write_us);
    f.mix(d.run.total_us);
    f.mix(d.run.p99_read_us);
    f.mix(d.run.p99_write_us);
    f.mix(d.run.counters.host_reads);
    f.mix(d.run.counters.host_writes);
    f.mix(d.run.counters.conflicts);
    f.mix(d.run.counters.gc_migrations);
    f.mix(d.run.device_full);
    for (const auto& s : d.epoch_summaries) {
      f.mix(s.reads);
      f.mix(s.writes);
      f.mix(s.conflicts);
      f.mix(s.iops);
      f.mix(s.read_p99_us);
      f.mix(s.write_p99_us);
      f.mix(s.mean_bus_util);
      f.mix(s.peak_bus_util);
    }
  }
  for (const auto& t : tenant_results) {
    f.mix(t.tenant);
    f.mix(t.initial_device);
    f.mix(t.final_device);
    f.mix(t.migrations);
    f.mix(t.reads);
    f.mix(t.writes);
    f.mix(t.avg_read_us);
    f.mix(t.avg_write_us);
    f.mix(t.total_us);
    f.mix(t.p99_read_us);
    f.mix(t.p99_write_us);
    f.mix(t.isolated_total_us);
    f.mix(t.slowdown);
  }
  for (const auto& m : migrations) {
    f.mix(m.epoch);
    f.mix(m.tenant);
    f.mix(m.from_device);
    f.mix(m.to_device);
    f.mix(m.from_slot);
    f.mix(m.to_slot);
    f.mix(m.stay_score_us);
    f.mix(m.move_score_us);
    f.mix(m.footprint_pages);
    f.mix(m.injected_pages);
    f.mix(static_cast<std::uint64_t>(m.modeled_cost_ns));
    for (const auto& trial : m.trials) {
      f.mix(trial.device);
      f.mix(trial.score_us);
    }
  }
  return f.h;
}

FleetResult run_fleet(const FleetConfig& config,
                      std::span<const TenantSpec> tenants,
                      const PlacementPolicy& policy, ThreadPool& pool) {
  validate(config, tenants);

  // Placement input: each tenant's first-epoch traffic, measured by the
  // per-tenant feature extractor (the same signal the keeper's collector
  // quantizes, kept continuous here).
  std::vector<TenantLoad> loads;
  loads.reserve(tenants.size());
  for (const auto& spec : tenants) {
    const auto stats = core::per_tenant_stats(records_to_requests(
        epoch_records(spec, config.seed, 0, config.epoch_ns), spec.id));
    TenantLoad load;
    load.tenant = spec.id;
    if (!stats.empty()) load = load_of(spec.id, stats.front());
    loads.push_back(load);
  }
  const auto placement =
      policy.place(loads, config.devices, config.slots_per_device);

  // Build the fleet: one device (+ tracer, + optional keeper) per slot of
  // the device vector, each on its own pool task (mostly first touch of
  // fresh memory); tenants are then assigned to slots in tenant-id order.
  std::vector<DeviceState> states(config.devices);
  parallel_for(pool, states.size(), [&](std::size_t d) {
    DeviceState& st = states[d];
    ssd::SsdOptions options = config.ssd;
    if (config.faulty_device_stride > 0 &&
        d % config.faulty_device_stride == 0) {
      options.faults = config.faults;
      st.faulty = true;
    }
    st.device = std::make_unique<ssd::Ssd>(options);
    st.tracer = std::make_unique<telemetry::Tracer>();
    st.device->set_tracer(st.tracer.get());
    if (config.allocator != nullptr) {
      st.keeper =
          std::make_unique<core::SsdKeeper>(*config.allocator, config.keeper);
      st.keeper->attach(*st.device);
    }
    st.slot_tenant.fill(kSlotFree);
  });
  std::vector<TenantState> tenant_states(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::uint32_t d = placement[i];
    DeviceState& st = states[d];
    const std::uint32_t slot = first_free_slot(st, config.slots_per_device);
    if (slot >= kMaxSlots) {
      throw std::logic_error("fleet: placement oversubscribed a device");
    }
    st.slot_tenant[slot] = static_cast<int>(tenants[i].id);
    TenantState& ts = tenant_states[i];
    ts.device = ts.initial_device = d;
    ts.slot = slot;
    ts.segments.emplace_back(d, slot);
  }

  FleetResult result;
  result.policy = policy.name();
  result.devices = config.devices;
  result.tenants = static_cast<std::uint32_t>(tenants.size());
  result.epochs = config.epochs;
  result.seed = config.seed;

  for (std::uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    parallel_map(pool, states.size(), [&](std::size_t d) {
      run_epoch_on_device(states[d], tenants, config, epoch);
      return 0;
    });
    if (config.migration.enabled && epoch + 1 < config.epochs) {
      consolidate(pool, states, tenant_states, tenants, config, epoch,
                  result.migrations);
    }
  }

  // Per-device results, merged in device-id order.
  double p99r_w = 0.0, p99w_w = 0.0, total_w = 0.0;
  double read_n = 0.0, write_n = 0.0, req_n = 0.0;
  for (std::uint32_t d = 0; d < config.devices; ++d) {
    DeviceState& st = states[d];
    FleetDeviceResult dr;
    dr.device = d;
    dr.faulty = st.faulty;
    dr.run = st.full ? st.full_result : core::summarize(*st.device);
    dr.epoch_summaries = st.epoch_summaries;
    const auto sums = st.device->metrics().aggregate_sums();
    const double reads = static_cast<double>(sums.reads);
    const double writes = static_cast<double>(sums.writes);
    read_n += reads;
    write_n += writes;
    req_n += reads + writes;
    p99r_w += dr.run.p99_read_us * reads;
    p99w_w += dr.run.p99_write_us * writes;
    total_w += dr.run.total_us * (reads + writes);
    result.total_requests += st.device->metrics().counters().host_reads +
                             st.device->metrics().counters().host_writes;
    result.device_results.push_back(std::move(dr));
  }
  if (read_n > 0.0) result.aggregate_p99_read_us = p99r_w / read_n;
  if (write_n > 0.0) result.aggregate_p99_write_us = p99w_w / write_n;
  if (req_n > 0.0) result.aggregate_total_us = total_w / req_n;

  // Isolated baselines: each tenant alone on a fresh (fault-free) device,
  // replaying all epochs of its own traffic — the denominator of the
  // slowdown column. Independent per tenant, so it fans out on the pool.
  std::vector<double> isolated(tenants.size(), 0.0);
  if (config.isolated_baseline) {
    isolated = parallel_map(pool, tenants.size(), [&](std::size_t i) {
      ssd::Ssd device(config.ssd);
      std::vector<sim::IoRequest> reqs;
      for (std::uint32_t e = 0; e < config.epochs; ++e) {
        const auto records =
            epoch_records(tenants[i], config.seed, e, config.epoch_ns);
        auto epoch_reqs = records_to_requests(records, 0);
        reqs.insert(reqs.end(), epoch_reqs.begin(), epoch_reqs.end());
      }
      for (std::size_t r = 0; r < reqs.size(); ++r) reqs[r].id = r;
      try {
        device.submit(reqs);
        device.run_to_completion();
      } catch (const ftl::DeviceFullError&) {
        // Partial metrics still give a usable denominator.
      }
      return device.metrics().aggregate_sums().total_us();
    });
  }

  double slowdown_sum = 0.0;
  std::uint32_t slowdown_n = 0;
  std::vector<double> slowdowns;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantState& ts = tenant_states[i];
    FleetTenantResult tr;
    tr.tenant = tenants[i].id;
    tr.initial_device = ts.initial_device;
    tr.final_device = ts.device;
    tr.migrations = ts.migrations;
    sim::TenantMetrics merged;
    for (const auto& [dev, slot] : ts.segments) {
      const auto& metrics = states[dev].device->metrics();
      if (!metrics.has_tenant(slot)) continue;
      const auto& tm = metrics.tenant(slot);
      merged.read_latency_us.merge(tm.read_latency_us);
      merged.write_latency_us.merge(tm.write_latency_us);
    }
    tr.reads = merged.read_latency_us.count();
    tr.writes = merged.write_latency_us.count();
    tr.avg_read_us = merged.avg_read_us();
    tr.avg_write_us = merged.avg_write_us();
    tr.total_us = merged.total_us();
    tr.p99_read_us = merged.read_latency_us.empty()
                         ? 0.0
                         : merged.read_latency_us.percentile(99.0);
    tr.p99_write_us = merged.write_latency_us.empty()
                          ? 0.0
                          : merged.write_latency_us.percentile(99.0);
    tr.isolated_total_us = isolated[i];
    if (tr.isolated_total_us > 0.0) {
      tr.slowdown = tr.total_us / tr.isolated_total_us;
      slowdown_sum += tr.slowdown;
      ++slowdown_n;
      slowdowns.push_back(tr.slowdown);
      result.worst_slowdown = std::max(result.worst_slowdown, tr.slowdown);
    }
    result.tenant_results.push_back(std::move(tr));
  }
  if (slowdown_n > 0) {
    result.mean_slowdown = slowdown_sum / slowdown_n;
    result.jain_index = sched::jain_index(slowdowns);
  }
  return result;
}

FleetResult run_fleet(const FleetConfig& config,
                      std::span<const TenantSpec> tenants,
                      const PlacementPolicy& policy, std::size_t threads) {
  ThreadPool pool(threads);
  return run_fleet(config, tenants, policy, pool);
}

}  // namespace ssdk::fleet
