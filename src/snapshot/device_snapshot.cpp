#include "snapshot/device_snapshot.hpp"

#include <sstream>
#include <stdexcept>

namespace ssdk::snapshot {

void save_options(StateWriter& w, const ssd::SsdOptions& o) {
  w.tag("OPTS");
  // Geometry.
  w.u32(o.geometry.channels);
  w.u32(o.geometry.chips_per_channel);
  w.u32(o.geometry.planes_per_chip);
  w.u32(o.geometry.blocks_per_plane);
  w.u32(o.geometry.pages_per_block);
  w.u32(o.geometry.page_size_bytes);
  // Timing.
  w.u64(o.timing.read_ns);
  w.u64(o.timing.program_ns);
  w.u64(o.timing.erase_ns);
  w.f64(o.timing.xfer_ns_per_byte);
  w.u64(o.timing.cmd_overhead_ns);
  w.u64(o.timing.read_retry_base_ns);
  w.u64(o.timing.read_retry_step_ns);
  // FTL config.
  w.u32(o.ftl.gc_trigger_free_blocks);
  w.u32(o.ftl.gc_target_free_blocks);
  w.u64(o.ftl.wear_gap_threshold);
  // Write buffer.
  w.u32(o.write_buffer.capacity_pages);
  w.u64(o.write_buffer.dram_ns);
  w.f64(o.write_buffer.high_watermark);
  w.f64(o.write_buffer.low_watermark);
  // Mode flags.
  w.boolean(o.read_priority);
  w.boolean(o.gc_enabled);
  w.boolean(o.multiplane_program);
  w.boolean(o.pipelined_writes);
  // Fault model.
  w.f64(o.faults.read_ber);
  w.f64(o.faults.read_ber_per_pe);
  w.f64(o.faults.program_fail);
  w.f64(o.faults.erase_fail);
  w.u32(o.faults.max_read_retries);
  w.u32(o.faults.program_fails_to_retire);
  w.u32(o.faults.erase_fails_to_retire);
  w.u64(o.faults.max_pe_cycles);
  w.u64(o.faults.seed);
  // Power model. A resumed run must keep its scheduled cut and recovery
  // behaviour: a crash campaign restarted from a checkpoint would
  // otherwise silently drop its pending power-loss injection.
  w.boolean(o.power.enabled);
  w.u64(o.power.cut_at_time);
  w.u64(o.power.cut_at_arrival);
  w.boolean(o.power.auto_recover);
  // Scheduler config. Must travel with the snapshot: load_device
  // reconstructs the Ssd from these options, and the scheduler's own
  // SCHD state section refuses to load under a different policy.
  w.u8(static_cast<std::uint8_t>(o.sched.policy));
  w.u32(o.sched.max_outstanding_requests);
  w.u64(o.sched.shares.size());
  for (const auto& s : o.sched.shares) {
    w.u32(s.tenant);
    w.u32(s.weight);
    w.u64(s.slo_target_us);
  }
}

ssd::SsdOptions load_options(StateReader& r) {
  r.tag("OPTS");
  ssd::SsdOptions o;
  o.geometry.channels = r.u32();
  o.geometry.chips_per_channel = r.u32();
  o.geometry.planes_per_chip = r.u32();
  o.geometry.blocks_per_plane = r.u32();
  o.geometry.pages_per_block = r.u32();
  o.geometry.page_size_bytes = r.u32();
  o.timing.read_ns = r.u64();
  o.timing.program_ns = r.u64();
  o.timing.erase_ns = r.u64();
  o.timing.xfer_ns_per_byte = r.f64();
  o.timing.cmd_overhead_ns = r.u64();
  o.timing.read_retry_base_ns = r.u64();
  o.timing.read_retry_step_ns = r.u64();
  o.ftl.gc_trigger_free_blocks = r.u32();
  o.ftl.gc_target_free_blocks = r.u32();
  o.ftl.wear_gap_threshold = r.u64();
  o.write_buffer.capacity_pages = r.u32();
  o.write_buffer.dram_ns = r.u64();
  o.write_buffer.high_watermark = r.f64();
  o.write_buffer.low_watermark = r.f64();
  o.read_priority = r.boolean();
  o.gc_enabled = r.boolean();
  o.multiplane_program = r.boolean();
  o.pipelined_writes = r.boolean();
  o.faults.read_ber = r.f64();
  o.faults.read_ber_per_pe = r.f64();
  o.faults.program_fail = r.f64();
  o.faults.erase_fail = r.f64();
  o.faults.max_read_retries = r.u32();
  o.faults.program_fails_to_retire = r.u32();
  o.faults.erase_fails_to_retire = r.u32();
  o.faults.max_pe_cycles = r.u64();
  o.faults.seed = r.u64();
  o.power.enabled = r.boolean();
  o.power.cut_at_time = r.u64();
  o.power.cut_at_arrival = r.u64();
  o.power.auto_recover = r.boolean();
  const std::uint64_t policy_at = r.offset();
  const std::uint8_t policy = r.u8();
  if (policy > static_cast<std::uint8_t>(sched::Policy::kWeightedShare)) {
    throw SnapshotError("snapshot: OPTS scheduler policy byte " +
                            std::to_string(policy) + " at offset " +
                            std::to_string(policy_at) + " is not a policy",
                        policy_at);
  }
  o.sched.policy = static_cast<sched::Policy>(policy);
  o.sched.max_outstanding_requests = r.u32();
  const std::uint64_t n_shares = r.checked_count(4 + 4 + 8);
  o.sched.shares.clear();
  o.sched.shares.reserve(n_shares);
  for (std::uint64_t i = 0; i < n_shares; ++i) {
    sched::TenantShare s;
    s.tenant = r.u32();
    s.weight = r.u32();
    s.slo_target_us = r.u64();
    o.sched.shares.push_back(s);
  }
  return o;
}

namespace {

/// The device payload: construction options, then the mutable state.
StateWriter device_payload(const ssd::Ssd& device) {
  StateWriter payload;
  save_options(payload, device.options());
  device.save_state(payload);
  return payload;
}

std::unique_ptr<ssd::Ssd> device_from_payload(std::span<const char> payload) {
  StateReader r(payload);
  ssd::SsdOptions options = load_options(r);
  std::unique_ptr<ssd::Ssd> device;
  try {
    device = std::make_unique<ssd::Ssd>(std::move(options));
  } catch (const std::invalid_argument& e) {
    // OPTS opens the payload.
    throw SnapshotError(std::string("snapshot: OPTS section at offset 0 "
                                    "holds invalid device options: ") +
                            e.what(),
                        0);
  }
  device->load_state(r);
  if (!r.exhausted()) {
    throw SnapshotError("snapshot: trailing garbage after device state at "
                        "offset " +
                            std::to_string(r.offset()) + ": " +
                            std::to_string(r.remaining()) +
                            " unread bytes",
                        r.offset());
  }
  return device;
}

}  // namespace

std::vector<char> save_device(const ssd::Ssd& device) {
  std::ostringstream os(std::ios::binary);
  write_container(os, PayloadKind::kDevice, device_payload(device).buffer());
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

std::unique_ptr<ssd::Ssd> load_device(std::span<const char> buffer) {
  std::istringstream in(std::string(buffer.begin(), buffer.end()),
                        std::ios::binary);
  return device_from_payload(read_container(in, PayloadKind::kDevice));
}

void save_device_file(const std::string& path, const ssd::Ssd& device) {
  write_container_file(path, PayloadKind::kDevice,
                       device_payload(device).buffer());
}

std::unique_ptr<ssd::Ssd> load_device_file(const std::string& path) {
  return device_from_payload(read_container_file(path, PayloadKind::kDevice));
}

}  // namespace ssdk::snapshot
