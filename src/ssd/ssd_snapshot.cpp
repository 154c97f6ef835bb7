// Snapshot and fork support for the device model: serialization of every
// mutable field, and a deep copy with the self-referential pointers fixed
// up. Kept out of ssd.cpp so the event-loop hot path stays a focused read.
//
// Invariant both paths preserve: a restored/forked device is
// *byte-equivalent* to the original — not merely behaviorally equal — so
// replaying the remaining trace produces a bit-identical telemetry stream
// (enforced by tests/snapshot/device_snapshot_test with first_divergence).
#include "ssd/ssd.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ssdk::ssd {

std::unique_ptr<Ssd> Ssd::fork() const {
  // Memberwise copy, then repair the two self pointers a copy cannot know
  // about and drop the parent's observers (hooks, tracer): a fork starts
  // unobserved, and the FTL's trace clock must follow the fork's own now_.
  std::unique_ptr<Ssd> copy(new Ssd(*this));
  copy->load_view_.ssd = copy.get();
  copy->arrival_hook_ = nullptr;
  copy->completion_hook_ = nullptr;
  copy->power_hook_ = nullptr;
  copy->tracer_ = nullptr;
  copy->ftl_.set_tracer(nullptr, &copy->now_);
  if (util::kCheckedBuild) copy->check_invariants();
  return copy;
}

namespace {

void save_ring(snapshot::StateWriter& w,
               const util::RingBuffer<std::uint64_t>& q) {
  w.u64(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) w.u64(q.at(i));
}

void load_ring(snapshot::StateReader& r,
               util::RingBuffer<std::uint64_t>& q) {
  const std::uint64_t n = r.checked_count(8);
  q.clear();
  q.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) q.push_back(r.u64());
}

}  // namespace

void Ssd::save_state(snapshot::StateWriter& w) const {
  w.tag("SSD_");

  // Clock, event kernel, and the FTL (mapping + blocks + policies).
  w.u64(now_);
  events_.save_state(w);
  ftl_.save_state(w);

  // Channel bus state machines.
  w.tag("CHNL");
  w.u64(channels_.size());
  for (const ChannelState& c : channels_) {
    w.boolean(c.bus_busy);
    w.u64(c.bus_free_at);
    save_ring(w, c.read_q);
    w.boolean(c.rr_toggle);
  }

  // Flash execution units.
  w.tag("UNIT");
  w.u64(units_.size());
  for (const UnitState& u : units_) {
    w.boolean(u.busy);
    w.u64(u.busy_until);
    save_ring(w, u.read_wait);
    save_ring(w, u.erase_wait);
    save_ring(w, u.write_q);
  }
  w.vec_u64(channel_busy_ns_);
  w.vec_u64(unit_busy_ns_);

  // Host request table and arrival cursor.
  w.tag("REQS");
  w.u64(requests_.size());
  for (const RequestState& rs : requests_) {
    w.u64(rs.req.id);
    w.u32(rs.req.tenant);
    w.u8(static_cast<std::uint8_t>(rs.req.type));
    w.u64(rs.req.lpn);
    w.u32(rs.req.page_count);
    w.u64(rs.req.arrival);
    w.u32(rs.remaining);
    w.u32(rs.failed);
    w.u32(rs.volatile_pages);
  }
  w.u64(arrival_cursor_);
  w.u64(last_submitted_arrival_);

  // Page-op slab (including free slots — slab indices are baked into
  // queued op ids, so the layout must survive verbatim).
  w.tag("OPSL");
  w.u64(ops_.size());
  for (const PageOp& op : ops_) {
    w.u64(op.request);
    w.u32(op.tenant);
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.u32(op.addr.channel);
    w.u32(op.addr.chip);
    w.u32(op.addr.plane);
    w.u32(op.addr.block);
    w.u32(op.addr.page);
    w.u64(op.ppn);
    w.u64(op.gc_src);
    w.u32(op.gc_job);
    w.u64(op.lpn);
    w.u64(op.oob_seq);
    w.u64(op.enq_seq);
    w.u64(op.dispatched_at);
    w.u32(op.attempts);
    w.boolean(op.in_use);
  }
  w.vec_u64(free_ops_);
  w.u64(next_enq_seq_);

  // GC job slab. gc_scratch_ is per-round scratch (cleared before each
  // use) and intentionally not captured.
  w.tag("GCJB");
  w.u64(gc_jobs_.size());
  for (const GcJob& j : gc_jobs_) {
    w.u64(j.plane_id);
    w.u32(j.victim);
    w.u32(j.outstanding);
    w.boolean(j.active);
    w.boolean(j.wl_round);
    w.boolean(j.rescue);
  }
  w.vec_u32(gc_job_of_plane_);

  // Write buffer. The map's iteration order is irrelevant on restore
  // (lookups only — the FIFO ring alone decides eviction order), but it is
  // serialized sorted by key so save(load(save(d))) is byte-identical: a
  // reloaded unordered_map need not iterate in the order it was filled.
  w.tag("WBUF");
  // ssdk-lint: allow(unordered-iter): copies the whole map and sorts by
  // key immediately below — the serialized order is hash-independent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(
      buffer_.begin(), buffer_.end());
  std::sort(entries.begin(), entries.end());
  w.u64(entries.size());
  for (const auto& [key, seq] : entries) {
    w.u64(key);
    w.u64(seq);
  }
  save_ring(w, buffer_fifo_);
  w.u64(buffer_seq_);
  w.u64(buffer_hits_);

  // Metrics and fault RNG.
  metrics_.save_state(w);
  w.tag("FRNG");
  const auto rng_state = fault_rng_.state();
  for (const std::uint64_t word : rng_state) w.u64(word);

  // Power-loss state: flush barriers, power flags, media-loss ledger.
  w.tag("PWRS");
  w.boolean(powered_off_);
  w.boolean(cut_fired_);
  w.u64(flush_barriers_.size());
  for (const FlushBarrier& fb : flush_barriers_) {
    w.u64(fb.request);
    w.u64(fb.threshold);
    w.u32(fb.remaining);
  }
  w.vec_u64(media_lost_keys_);

  // Admission scheduler (writes its own SCHD tag + policy byte).
  sched_->save_state(w);

  w.tag("DONE");
}

void Ssd::load_state(snapshot::StateReader& r) {
  r.tag("SSD_");

  now_ = r.u64();
  events_.load_state(r);
  ftl_.load_state(r);

  r.tag("CHNL");
  const std::uint64_t nchan = r.checked_count(1);
  if (nchan != channels_.size()) {
    throw snapshot::SnapshotError(
        "snapshot: channel count mismatch at offset " +
            std::to_string(r.offset()) + ": expected " +
            std::to_string(channels_.size()) + " (from options), found " +
            std::to_string(nchan),
        r.offset());
  }
  for (ChannelState& c : channels_) {
    c.bus_busy = r.boolean();
    c.bus_free_at = r.u64();
    load_ring(r, c.read_q);
    c.rr_toggle = r.boolean();
  }

  r.tag("UNIT");
  const std::uint64_t nunit = r.checked_count(1);
  if (nunit != units_.size()) {
    throw snapshot::SnapshotError(
        "snapshot: unit count mismatch at offset " +
            std::to_string(r.offset()) + ": expected " +
            std::to_string(units_.size()) + " (from options), found " +
            std::to_string(nunit),
        r.offset());
  }
  for (UnitState& u : units_) {
    u.busy = r.boolean();
    u.busy_until = r.u64();
    load_ring(r, u.read_wait);
    load_ring(r, u.erase_wait);
    load_ring(r, u.write_q);
  }
  channel_busy_ns_ = r.vec_u64();
  unit_busy_ns_ = r.vec_u64();

  r.tag("REQS");
  const std::uint64_t nreq =
      r.checked_count(8 + 4 + 1 + 8 + 4 + 8 + 4 + 4 + 4);
  requests_.assign(nreq, RequestState{});
  for (RequestState& rs : requests_) {
    rs.req.id = r.u64();
    rs.req.tenant = r.u32();
    rs.req.type = static_cast<sim::OpType>(r.u8());
    rs.req.lpn = r.u64();
    rs.req.page_count = r.u32();
    rs.req.arrival = r.u64();
    rs.remaining = r.u32();
    rs.failed = r.u32();
    rs.volatile_pages = r.u32();
  }
  arrival_cursor_ = r.u64();
  last_submitted_arrival_ = r.u64();

  r.tag("OPSL");
  const std::uint64_t nops = r.checked_count(8 + 4 + 1 + 5 * 4 + 8 + 8 + 4 +
                                             8 + 8 + 8 + 8 + 4 + 1);
  ops_.assign(nops, PageOp{});
  for (PageOp& op : ops_) {
    op.request = r.u64();
    op.tenant = r.u32();
    op.kind = static_cast<OpKind>(r.u8());
    op.addr.channel = r.u32();
    op.addr.chip = r.u32();
    op.addr.plane = r.u32();
    op.addr.block = r.u32();
    op.addr.page = r.u32();
    op.ppn = r.u64();
    op.gc_src = r.u64();
    op.gc_job = r.u32();
    op.lpn = r.u64();
    op.oob_seq = r.u64();
    op.enq_seq = r.u64();
    op.dispatched_at = r.u64();
    op.attempts = r.u32();
    op.in_use = r.boolean();
  }
  free_ops_ = r.vec_u64();
  next_enq_seq_ = r.u64();
  // grant_seq_ is derived state, not wire format: rebuild it from each
  // unit's busy flag and front write, which must name a slab slot.
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const OpQueue& q = units_[i].write_q;
    if (!q.empty() && q.front() >= ops_.size()) {
      throw snapshot::SnapshotError(
          "snapshot: unit " + std::to_string(i) + " write queue names op " +
              std::to_string(q.front()) + " outside the " +
              std::to_string(ops_.size()) + "-entry op slab at offset " +
              std::to_string(r.offset()),
          r.offset());
    }
    grant_seq_[i] = grant_key(i);
  }

  r.tag("GCJB");
  const std::uint64_t njobs = r.checked_count(8 + 4 + 4 + 1 + 1 + 1);
  gc_jobs_.assign(njobs, GcJob{});
  for (GcJob& j : gc_jobs_) {
    j.plane_id = r.u64();
    j.victim = r.u32();
    j.outstanding = r.u32();
    j.active = r.boolean();
    j.wl_round = r.boolean();
    j.rescue = r.boolean();
  }
  gc_job_of_plane_ = r.vec_u32();
  if (gc_job_of_plane_.size() != options_.geometry.total_planes()) {
    throw snapshot::SnapshotError(
        "snapshot: plane map size mismatch at offset " +
            std::to_string(r.offset()) + ": expected " +
            std::to_string(options_.geometry.total_planes()) +
            " (from options), found " +
            std::to_string(gc_job_of_plane_.size()),
        r.offset());
  }

  r.tag("WBUF");
  const std::uint64_t nbuf = r.checked_count(8 + 8);
  buffer_.clear();
  buffer_.reserve(nbuf);
  for (std::uint64_t i = 0; i < nbuf; ++i) {
    const std::uint64_t key = r.u64();
    const std::uint64_t seq = r.u64();
    buffer_.emplace(key, seq);
  }
  load_ring(r, buffer_fifo_);
  buffer_seq_ = r.u64();
  buffer_hits_ = r.u64();

  metrics_.load_state(r);
  r.tag("FRNG");
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();
  fault_rng_.set_state(rng_state);

  r.tag("PWRS");
  powered_off_ = r.boolean();
  cut_fired_ = r.boolean();
  const std::uint64_t nbarriers = r.checked_count(8 + 8 + 4);
  flush_barriers_.assign(nbarriers, FlushBarrier{});
  for (FlushBarrier& fb : flush_barriers_) {
    fb.request = r.u64();
    fb.threshold = r.u64();
    fb.remaining = r.u32();
  }
  media_lost_keys_ = r.vec_u64();

  sched_->load_state(r);

  r.tag("DONE");

  // Observers never survive a restore.
  arrival_hook_ = nullptr;
  completion_hook_ = nullptr;
  power_hook_ = nullptr;
  tracer_ = nullptr;
  ftl_.set_tracer(nullptr, &now_);

  // A snapshot is external input: in checked builds, prove the loaded
  // state is structurally sound before the event loop touches it.
  if (util::kCheckedBuild) check_invariants();
}

}  // namespace ssdk::ssd
