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
#include <limits>
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

[[noreturn]] void reject(std::uint64_t at, const std::string& what) {
  throw snapshot::SnapshotError(
      "snapshot: " + what + " at offset " + std::to_string(at), at);
}

/// Queues write 64-bit entries whatever their width in memory.
template <typename T>
void save_ring(snapshot::StateWriter& w, const util::RingBuffer<T>& q) {
  w.u64(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) w.u64(q.at(i));
}

/// Loads a ring; returns the offset of its count, so the caller can name
/// entry k's offset (count + 8 + 8k) once the op slab is known.
template <typename T>
std::uint64_t load_ring(snapshot::StateReader& r, util::RingBuffer<T>& q) {
  const std::uint64_t at = r.offset();
  const std::uint64_t n = r.checked_count(8);
  q.clear();
  q.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t v = r.u64();
    if (v > std::numeric_limits<T>::max()) {
      reject(at + 8 + 8 * i, "queue entry " + std::to_string(v) +
                                 " does not fit its " +
                                 std::to_string(8 * sizeof(T)) + "-bit slot");
    }
    q.push_back(static_cast<T>(v));
  }
  return at;
}

/// A 32-bit PPN field as the wire writes it: kInvalidPpn32 widens to
/// kInvalidPpn.
std::uint64_t widen(sim::Ppn32 ppn) {
  return ppn == sim::kInvalidPpn32 ? sim::kInvalidPpn : ppn;
}

/// "request 7", "op 12": names an element in a rejection message.
std::string item(const char* kind, std::uint64_t index) {
  return std::string(kind) + " " + std::to_string(index);
}

/// Request `index`'s page count `field` must not exceed its page count.
void require_within_pages(std::uint64_t at, std::uint64_t index,
                          const char* field, std::uint32_t value,
                          std::uint32_t page_count) {
  if (value > page_count) {
    reject(at, item("request", index) + " " + field + " " +
                   std::to_string(value) + " exceeds its " +
                   std::to_string(page_count) + " pages");
  }
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
  // Every request writes all nine fields; a count request_tallies_ never
  // recorded is written as zero.
  w.u64(requests_.size());
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const RequestState& rs = requests_[i];
    const RequestTally tallied = i < request_tallies_.size()
                                     ? request_tallies_[i]
                                     : RequestTally{};
    w.u64(rs.id);
    w.u32(rs.tenant);
    w.u8(static_cast<std::uint8_t>(rs.type));
    w.u64(rs.lpn);
    w.u32(rs.page_count);
    w.u64(rs.arrival);
    w.u32(rs.remaining);
    w.u32(tallied.failed);
    w.u32(tallied.volatile_pages);
  }
  w.u64(arrival_cursor_);
  w.u64(last_submitted_arrival_);

  // Page-op slab (including free slots — slab indices are baked into
  // queued op ids, so the layout must survive verbatim). The wire writes
  // the record's 32-bit PPN twice: decoded into five address components,
  // and widened to 64 bits like the request index, migration source and
  // free-list ids. An erase writes kInvalidPpn, and a slot freed before
  // placement (a trim, a buffer hit) zero components.
  w.tag("OPSL");
  w.u64(ops_.size());
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    const PageOp& op = ops_[id];
    w.u64(op.request == kNoRequest32 ? kNoRequest : op.request);
    w.u32(op.tenant);
    w.u8(static_cast<std::uint8_t>(op.kind));
    const sim::PhysAddr addr =
        op.ppn == sim::kInvalidPpn32 ? sim::PhysAddr{} : addr_of(op);
    w.u32(addr.channel);
    w.u32(addr.chip);
    w.u32(addr.plane);
    w.u32(addr.block);
    w.u32(addr.page);
    w.u64(op.kind == OpKind::kErase ? sim::kInvalidPpn : widen(op.ppn));
    w.u64(widen(op.gc_src));
    w.u32(op.gc_job);
    w.u64(op.lpn);
    w.u64(id < op_oob_seqs_.size() ? op_oob_seqs_[id] : 0);
    w.u64(op.enq_seq);
    w.u64(op.dispatched_at);
    w.u32(op.attempts);
    w.boolean(op.in_use);
  }
  w.u64(free_ops_.size());
  for (const OpId id : free_ops_) w.u64(id);
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
  sched_.save_state(w);

  w.tag("DONE");
}

void Ssd::load_state(snapshot::StateReader& r) {
  r.tag("SSD_");

  now_ = r.u64();
  // Event payloads name units, channels, ops and requests: checked once
  // OPSL is loaded.
  const auto events = events_.load_state(r, now_);
  ftl_.load_state(r);

  // Op-id queues are checked against the op slab once OPSL is loaded:
  // remember where each one sits.
  struct QueueAt {
    const OpQueue* queue;
    std::uint64_t at;  ///< offset of the ring's count
  };
  std::vector<QueueAt> queues;

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
    queues.push_back({&c.read_q, load_ring(r, c.read_q)});
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
    queues.push_back({&u.read_wait, load_ring(r, u.read_wait)});
    queues.push_back({&u.erase_wait, load_ring(r, u.erase_wait)});
    queues.push_back({&u.write_q, load_ring(r, u.write_q)});
  }
  // Busy-time accumulators are indexed by channel and by unit.
  const auto load_per = [&r](std::vector<Duration>& out, std::size_t expected,
                             const char* what) {
    const std::uint64_t at = r.offset();
    out = r.vec_u64();
    if (out.size() != expected) {
      reject(at, std::string(what) + " busy times list " +
                     std::to_string(out.size()) + " entries, not " +
                     std::to_string(expected));
    }
  };
  load_per(channel_busy_ns_, channels_.size(), "channel");
  load_per(unit_busy_ns_, units_.size(), "unit");

  r.tag("REQS");
  const std::uint64_t nreq_at = r.offset();
  const std::uint64_t nreq =
      r.checked_count(8 + 4 + 1 + 8 + 4 + 8 + 4 + 4 + 4);
  if (nreq > kNoRequest32) {
    // Page ops name their request in 32 bits, kNoRequest32 meaning none.
    reject(nreq_at, std::to_string(nreq) + " requests exceed the 2^32 - 1 "
                    "a page op can name");
  }
  requests_.assign(nreq, RequestState{});
  request_tallies_.clear();
  for (std::uint64_t i = 0; i < nreq; ++i) {
    RequestState& rs = requests_[i];
    rs.id = r.u64();
    const std::uint64_t tenant_at = r.offset();
    rs.tenant = r.u32();
    if (rs.tenant == sim::kInternalTenant) {
      reject(tenant_at, item("request", i) + " names the internal GC tenant");
    }
    const std::uint64_t type_at = r.offset();
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(sim::OpType::kFlush)) {
      reject(type_at, item("request", i) + " type byte " +
                          std::to_string(type) + " is not an OpType");
    }
    rs.type = static_cast<sim::OpType>(type);
    rs.lpn = r.u64();
    const std::uint64_t pages_at = r.offset();
    rs.page_count = r.u32();
    if (rs.page_count == 0) {
      reject(pages_at, item("request", i) + " has zero pages");
    }
    rs.arrival = r.u64();
    const std::uint64_t remaining_at = r.offset();
    rs.remaining = r.u32();
    require_within_pages(remaining_at, i, "remaining count", rs.remaining,
                         rs.page_count);
    RequestTally tallied;
    const std::uint64_t failed_at = r.offset();
    tallied.failed = r.u32();
    require_within_pages(failed_at, i, "failed count", tallied.failed,
                         rs.page_count);
    const std::uint64_t volatile_at = r.offset();
    tallied.volatile_pages = r.u32();
    require_within_pages(volatile_at, i, "volatile page count",
                         tallied.volatile_pages, rs.page_count);
    if (tallied.failed != 0 || tallied.volatile_pages != 0) {
      request_tallies_.resize(nreq);
      request_tallies_[i] = tallied;
    }
  }
  const std::uint64_t cursor_at = r.offset();
  arrival_cursor_ = r.u64();
  if (arrival_cursor_ > nreq) {
    reject(cursor_at, "arrival cursor " + std::to_string(arrival_cursor_) +
                          " is past the " + std::to_string(nreq) +
                          "-entry request table");
  }
  last_submitted_arrival_ = r.u64();

  r.tag("OPSL");
  const std::uint64_t nops_at = r.offset();
  const std::uint64_t nops = r.checked_count(8 + 4 + 1 + 5 * 4 + 8 + 8 + 4 +
                                             8 + 8 + 8 + 8 + 4 + 1);
  if (nops > kMaxOps) {
    reject(nops_at, std::to_string(nops) + " op slots exceed the 2^32 - 1 "
                    "an op id can name");
  }
  const auto& g = options_.geometry;
  // Job indices of in-use GC and erase ops, checked once GCJB is loaded.
  struct JobRef {
    std::uint64_t op;
    std::uint32_t job;
    std::uint64_t at;
  };
  std::vector<JobRef> job_refs;
  ops_.assign(nops, PageOp{});
  op_oob_seqs_.clear();
  if (ftl_.oob().enabled()) op_oob_seqs_.assign(nops, 0);
  // Every field is checked before it is narrowed to the record's width,
  // free slots included: a free slot keeps its last op's fields, and
  // save(load(b)) must reproduce b.
  for (std::uint64_t id = 0; id < nops; ++id) {
    PageOp& op = ops_[id];
    const std::uint64_t request_at = r.offset();
    const std::uint64_t request = r.u64();
    op.tenant = r.u32();
    const std::uint64_t kind_at = r.offset();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(OpKind::kFlushWrite)) {
      reject(kind_at, item("op", id) + " kind byte " + std::to_string(kind) +
                          " is not an OpKind");
    }
    op.kind = static_cast<OpKind>(kind);
    // unit_of indexes units_, and the block and page pick flash state:
    // every component must lie inside the geometry.
    const auto component = [&](const char* field, std::uint32_t limit) {
      const std::uint64_t at = r.offset();
      const std::uint32_t v = r.u32();
      if (v >= limit) {
        reject(at, item("op", id) + " address " + field + " " +
                       std::to_string(v) + " is outside the geometry's " +
                       std::to_string(limit));
      }
      return v;
    };
    sim::PhysAddr addr;
    addr.channel = component("channel", g.channels);
    addr.chip = component("chip", g.chips_per_channel);
    addr.plane = component("plane", g.planes_per_chip);
    addr.block = component("block", g.blocks_per_plane);
    const std::uint64_t page_at = r.offset();
    addr.page = component("page", g.pages_per_block);
    const std::uint64_t ppn_at = r.offset();
    const sim::Ppn ppn = r.u64();
    const std::uint64_t src_at = r.offset();
    const sim::Ppn gc_src = r.u64();
    const std::uint64_t job_at = r.offset();
    op.gc_job = r.u32();
    op.lpn = r.u64();
    const std::uint64_t seq_at = r.offset();
    const std::uint64_t seq = r.u64();
    op.enq_seq = r.u64();
    op.dispatched_at = r.u64();
    const std::uint64_t attempts_at = r.offset();
    const std::uint32_t attempts = r.u32();
    op.in_use = r.boolean();

    const bool host =
        op.kind == OpKind::kHostRead || op.kind == OpKind::kHostWrite;
    if ((request != kNoRequest || (op.in_use && host)) && request >= nreq) {
      reject(request_at, item("op", id) + " names request " +
                             std::to_string(request) + " past the " +
                             std::to_string(nreq) + "-entry request table");
    }
    op.request = request == kNoRequest ? kNoRequest32
                                       : static_cast<std::uint32_t>(request);
    // The record keeps one copy of the address, its PPN, so the wire's two
    // copies must agree. An erase names its block by the components alone.
    const sim::Ppn encoded = g.encode(addr);
    if (op.kind == OpKind::kErase) {
      if (ppn != sim::kInvalidPpn) {
        reject(ppn_at, item("erase op", id) + " carries ppn " +
                           std::to_string(ppn) + "; an erase names its "
                           "block by address");
      }
      if (addr.page != 0) {
        reject(page_at, item("erase op", id) + " address page " +
                            std::to_string(addr.page) +
                            " is not its block's first");
      }
      op.ppn = static_cast<sim::Ppn32>(encoded);
    } else if (!op.in_use && ppn == sim::kInvalidPpn &&
               addr == sim::PhysAddr{}) {
      op.ppn = sim::kInvalidPpn32;  // freed before placement
    } else if (ppn != encoded) {
      reject(ppn_at, item("op", id) + " ppn " + std::to_string(ppn) +
                         " disagrees with its address, ppn " +
                         std::to_string(encoded));
    } else {
      op.ppn = static_cast<sim::Ppn32>(encoded);
    }
    const bool needs_src = op.in_use && op.kind == OpKind::kGcWrite;
    if ((needs_src || gc_src != sim::kInvalidPpn) &&
        gc_src >= g.total_pages()) {
      reject(src_at, item("op", id) + " migration source " +
                         std::to_string(gc_src) +
                         " is outside the device's " +
                         std::to_string(g.total_pages()) + " pages");
    }
    op.gc_src = gc_src == sim::kInvalidPpn ? sim::kInvalidPpn32
                                           : static_cast<sim::Ppn32>(gc_src);
    if (ftl_.oob().enabled()) {
      op_oob_seqs_[id] = seq;
    } else if (seq != 0) {
      reject(seq_at, item("op", id) + " carries OOB seq " +
                         std::to_string(seq) +
                         " on a device without the power model");
    }
    if (attempts > std::numeric_limits<std::uint16_t>::max()) {
      reject(attempts_at, item("op", id) + " read attempts " +
                              std::to_string(attempts) + " exceed 65535");
    }
    op.attempts = static_cast<std::uint16_t>(attempts);
    if (op.in_use && (op.kind == OpKind::kGcRead ||
                      op.kind == OpKind::kGcWrite ||
                      op.kind == OpKind::kErase)) {
      job_refs.push_back({id, op.gc_job, job_at});
    }
  }
  const std::uint64_t free_at = r.offset();
  const std::vector<std::uint64_t> free_ids = r.vec_u64();
  // alloc_op writes ops_[id] for every id it pops: each must be a free
  // slot of the slab, listed once.
  free_ops_.clear();
  free_ops_.reserve(free_ids.size());
  std::vector<std::uint8_t> listed(nops, 0);
  for (std::size_t k = 0; k < free_ids.size(); ++k) {
    const std::uint64_t id = free_ids[k];
    const std::uint64_t at = free_at + 8 + 8 * k;
    if (id >= nops) {
      reject(at, "free list names op " + std::to_string(id) +
                     " outside the " + std::to_string(nops) +
                     "-entry op slab");
    }
    if (ops_[id].in_use) {
      reject(at, "free list names in-use op " + std::to_string(id));
    }
    if (listed[id]) {
      reject(at, "free list names op " + std::to_string(id) + " twice");
    }
    listed[id] = 1;
    free_ops_.push_back(static_cast<OpId>(id));
  }
  next_enq_seq_ = r.u64();
  // Every queued op id, and every op an event names, must be an in-use
  // slot.
  const auto require_in_use = [&](std::uint64_t at, const std::string& who,
                                  std::uint64_t id) {
    if (id >= nops) {
      reject(at, who + " names op " + std::to_string(id) + " outside the " +
                     std::to_string(nops) + "-entry op slab");
    }
    if (!ops_[id].in_use) {
      reject(at, who + " names free op slot " + std::to_string(id));
    }
  };
  for (const QueueAt& q : queues) {
    for (std::size_t k = 0; k < q.queue->size(); ++k) {
      require_in_use(q.at + 8 + 8 * k, "op queue", q.queue->at(k));
    }
  }
  // Event records: kind at +16, a at +17, b at +25.
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& [e, at] = events[k];
    const std::string who = item("event", k);
    const auto require_below = [&](std::uint64_t limit, const char* what) {
      if (e.a >= limit) {
        reject(at + 17, who + " names " + what + " " + std::to_string(e.a) +
                            " of only " + std::to_string(limit));
      }
    };
    switch (e.kind) {
      case sim::EventKind::kFlashDone:
      case sim::EventKind::kWriteDone:
        require_below(units_.size(), "unit");
        require_in_use(at + 25, who, e.b);
        break;
      case sim::EventKind::kBusFree:
        require_below(channels_.size(), "channel");
        if (e.b != sim::kNoOp) require_in_use(at + 25, who, e.b);
        break;
      case sim::EventKind::kBufferDone:
        require_below(nreq, "request");
        break;
      case sim::EventKind::kArrival:
        // Arrivals come from the request cursor; a queued one would admit
        // its request a second time.
        reject(at + 16, who + " is an arrival, which the device never "
                              "schedules");
    }
  }
  // grant_seq_ is derived state, not wire format: rebuild it from each
  // unit's busy flag and front write.
  for (std::size_t i = 0; i < units_.size(); ++i) grant_seq_[i] = grant_key(i);

  r.tag("GCJB");
  const std::uint64_t njobs = r.checked_count(8 + 4 + 4 + 1 + 1 + 1);
  gc_jobs_.assign(njobs, GcJob{});
  for (std::uint64_t j = 0; j < njobs; ++j) {
    GcJob& job = gc_jobs_[j];
    const std::uint64_t plane_at = r.offset();
    job.plane_id = r.u64();
    if (job.plane_id >= g.total_planes()) {
      reject(plane_at, item("gc job", j) + " plane " +
                           std::to_string(job.plane_id) +
                           " is outside the geometry's " +
                           std::to_string(g.total_planes()) + " planes");
    }
    const std::uint64_t victim_at = r.offset();
    job.victim = r.u32();
    if (job.victim >= g.blocks_per_plane) {
      reject(victim_at, item("gc job", j) + " victim block " +
                            std::to_string(job.victim) +
                            " is outside the geometry's " +
                            std::to_string(g.blocks_per_plane) +
                            " blocks per plane");
    }
    job.outstanding = r.u32();
    job.active = r.boolean();
    job.wl_round = r.boolean();
    job.rescue = r.boolean();
  }
  for (const JobRef& ref : job_refs) {
    if (ref.job >= njobs) {
      reject(ref.at, item("op", ref.op) + " names gc job " +
                         std::to_string(ref.job) + " past the " +
                         std::to_string(njobs) + "-job table");
    }
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
  for (std::uint64_t b = 0; b < nbarriers; ++b) {
    FlushBarrier& fb = flush_barriers_[b];
    const std::uint64_t request_at = r.offset();
    fb.request = r.u64();
    if (fb.request >= nreq) {
      reject(request_at, item("flush barrier", b) + " names request " +
                             std::to_string(fb.request) +
                             " past the " + std::to_string(nreq) +
                             "-entry request table");
    }
    fb.threshold = r.u64();
    fb.remaining = r.u32();
  }
  media_lost_keys_ = r.vec_u64();

  // Admission indexes the request table with each queued request and
  // dispatches all its pages: the request must have arrived, be queued
  // once, and not have started. A started request is named by an in-use
  // op, a pending buffer completion or a flush barrier, or has counted
  // pages; its remaining count alone cannot tell, since an admitted
  // request whose pages are all in flight still has every page remaining.
  const auto queued_items = sched_.load_state(r);
  constexpr std::uint8_t kStarted = 1, kQueued = 2;
  std::vector<std::uint8_t> claimed;
  if (!queued_items.empty()) {
    claimed.assign(nreq, 0);
    for (std::size_t id = 0; id < ops_.size(); ++id) {
      const PageOp& op = ops_[id];
      if (op.in_use && op.request != kNoRequest32) {
        claimed[op.request] = kStarted;
      }
    }
    for (const auto& [e, at] : events) {
      if (e.kind == sim::EventKind::kBufferDone) claimed[e.a] = kStarted;
    }
    for (const FlushBarrier& fb : flush_barriers_) {
      claimed[fb.request] = kStarted;
    }
  }
  for (const auto& [queued, at] : queued_items) {
    const std::uint64_t index = queued.request_index;
    if (index >= arrival_cursor_) {
      reject(at, item("queued request", index) +
                     " is at or past the arrival cursor " +
                     std::to_string(arrival_cursor_));
    }
    if (queued.page_count == 0) {
      reject(at + 8, item("queued request", index) + " has zero pages");
    }
    if (claimed[index] == kQueued) {
      reject(at, item("queued request", index) + " is queued twice");
    }
    const RequestState& rs = requests_[index];
    const RequestTally tallied = tally(index);
    if (claimed[index] == kStarted || rs.remaining != rs.page_count ||
        tallied.failed != 0 || tallied.volatile_pages != 0) {
      reject(at, item("queued request", index) + " already started");
    }
    claimed[index] = kQueued;
  }

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
