// Snapshot and fork support for the device model: serialization of every
// mutable field, and a deep copy with the self-referential pointers fixed
// up. Kept out of ssd.cpp so the event-loop hot path stays a focused read.
//
// Invariant both paths preserve: a restored/forked device saves to the
// same bytes as the original — not merely behaviorally equal — and
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

[[noreturn]] void reject(std::uint64_t at, const std::string& what) {
  throw snapshot::SnapshotError(
      "snapshot: " + what + " at offset " + std::to_string(at), at);
}

/// Rings write their entries oldest first, at the width the device holds
/// them: u32 op ids, u64 write-buffer keys.
template <typename T>
void save_ring(snapshot::StateWriter& w, const util::RingBuffer<T>& q) {
  w.u64(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    if constexpr (sizeof(T) == 4) {
      w.u32(q.at(i));
    } else {
      w.u64(q.at(i));
    }
  }
}

/// Loads a ring; returns the offset of its count, so the caller can name
/// entry k's offset (count + 8 + k * sizeof(T)) once the op slab is known.
template <typename T>
std::uint64_t load_ring(snapshot::StateReader& r, util::RingBuffer<T>& q) {
  const std::uint64_t at = r.offset();
  const std::uint64_t n = r.checked_count(sizeof(T));
  q.clear();
  q.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if constexpr (sizeof(T) == 4) {
      q.push_back(r.u32());
    } else {
      q.push_back(r.u64());
    }
  }
  return at;
}

/// "request 7", "op 12": names an element in a rejection message.
std::string item(const char* kind, std::uint64_t index) {
  return std::string(kind) + " " + std::to_string(index);
}

/// Reads request `index`'s count `field`, which must not exceed the
/// request's page count.
std::uint32_t read_within_pages(snapshot::StateReader& r, std::uint64_t index,
                                const char* field, std::uint32_t page_count) {
  const std::uint64_t at = r.offset();
  const std::uint32_t value = r.u32();
  if (value > page_count) {
    reject(at, item("request", index) + " " + field + " " +
                   std::to_string(value) + " exceeds its " +
                   std::to_string(page_count) + " pages");
  }
  return value;
}

/// Bytes of one in-use OPSL record without its OOB seq: u32 request,
/// tenant, u8 kind, u32 ppn, migration source, job, u64 lpn, enqueue seq,
/// dispatch time, u16 attempts.
constexpr std::uint64_t kOpRecordBytes = 4 + 4 + 1 + 4 + 4 + 4 + 8 + 8 + 8 + 2;

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

  // Host request table, the side tallies (usually none) and the arrival
  // cursor.
  w.tag("REQS");
  w.u64(requests_.size());
  for (const RequestState& rs : requests_) {
    w.u64(rs.id);
    w.u32(rs.tenant);
    w.u8(static_cast<std::uint8_t>(rs.type));
    w.u64(rs.lpn);
    w.u32(rs.page_count);
    w.u64(rs.arrival);
    w.u32(rs.remaining);
  }
  w.u64(request_tallies_.size());
  for (const RequestTally& t : request_tallies_) {
    w.u32(t.failed);
    w.u32(t.volatile_pages);
  }
  w.u64(arrival_cursor_);
  w.u64(last_submitted_arrival_);

  // Page-op slab. Queued op ids name slots, so the slot count and the free
  // list (in pop order) are state; a free slot's fields are not, since
  // alloc_op resets them, so only the slots in use are written, in id order.
  w.tag("OPSL");
  w.u64(ops_.size());
  w.u64(free_ops_.size());
  for (auto id = free_ops_.rbegin(); id != free_ops_.rend(); ++id) w.u32(*id);
  const bool oob = ftl_.oob().enabled();
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    const PageOp& op = ops_[id];
    if (!op.in_use) continue;
    w.u32(op.request);
    w.u32(op.tenant);
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.u32(op.ppn);
    w.u32(op.gc_src);
    w.u32(op.gc_job);
    w.u64(op.lpn);
    w.u64(op.enq_seq);
    w.u64(op.dispatched_at);
    w.u16(op.attempts);
    if (oob) w.u64(op_oob_seqs_[id]);
  }
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

  // Write buffer: the dirty keys, sorted so that save(load(save(d))) is
  // byte-identical (a reloaded unordered_map need not iterate in the order
  // it was filled), then the eviction FIFO, which alone decides eviction
  // order.
  w.tag("WBUF");
  std::vector<std::uint64_t> keys;
  keys.reserve(buffer_.size());
  // ssdk-lint: allow(unordered-iter): collects the keys and sorts them
  // immediately below — the serialized order is hash-independent.
  for (const auto& [key, kept] : buffer_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.vec_u64(keys);
  save_ring(w, buffer_fifo_);
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
  const std::uint64_t nreq = r.checked_count(8 + 4 + 1 + 8 + 4 + 8 + 4);
  if (nreq > kNoRequest32) {
    // Page ops name their request in 32 bits, kNoRequest32 meaning none.
    reject(nreq_at, std::to_string(nreq) + " requests exceed the 2^32 - 1 "
                    "a page op can name");
  }
  requests_.assign(nreq, RequestState{});
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
    rs.remaining = read_within_pages(r, i, "remaining count", rs.page_count);
  }
  const std::uint64_t ntallies_at = r.offset();
  const std::uint64_t ntallies = r.checked_count(4 + 4);
  if (ntallies > nreq) {
    reject(ntallies_at, std::to_string(ntallies) + " request tallies for a " +
                            std::to_string(nreq) + "-entry request table");
  }
  request_tallies_.assign(ntallies, RequestTally{});
  for (std::uint64_t i = 0; i < ntallies; ++i) {
    const std::uint32_t pages = requests_[i].page_count;
    request_tallies_[i].failed = read_within_pages(r, i, "failed count", pages);
    request_tallies_[i].volatile_pages =
        read_within_pages(r, i, "volatile page count", pages);
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
  // A slot costs at least its 4-byte id on the free list.
  const std::uint64_t nops_at = r.offset();
  const std::uint64_t nops = r.checked_count(4);
  if (nops > kMaxOps) {
    reject(nops_at, std::to_string(nops) + " op slots exceed the 2^32 - 1 "
                    "an op id can name");
  }
  // alloc_op writes ops_[id] for every id it pops: each must be a slot of
  // the slab, listed once. The wire lists them in pop order.
  const std::uint64_t nfree = r.checked_count(4);
  std::vector<std::uint8_t> is_free(nops, 0);
  free_ops_.assign(nfree, 0);
  for (std::uint64_t k = 0; k < nfree; ++k) {
    const std::uint64_t at = r.offset();
    const OpId id = r.u32();
    if (id >= nops) {
      reject(at, "free list names op " + std::to_string(id) + " outside the " +
                     std::to_string(nops) + "-entry op slab");
    }
    if (is_free[id]) {
      reject(at, "free list names op " + std::to_string(id) + " twice");
    }
    is_free[id] = 1;
    free_ops_[nfree - 1 - k] = id;
  }
  const bool oob = ftl_.oob().enabled();
  const std::uint64_t op_bytes = kOpRecordBytes + (oob ? 8 : 0);
  if (nops - nfree > r.remaining() / op_bytes) {
    reject(nops_at, std::to_string(nops - nfree) + " op slots in use need " +
                        std::to_string(op_bytes) + " bytes each, only " +
                        std::to_string(r.remaining()) + " bytes remain");
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
  op_oob_seqs_.assign(oob ? nops : 0, 0);
  for (std::uint64_t id = 0; id < nops; ++id) {
    if (is_free[id]) continue;
    PageOp& op = ops_[id];
    const std::uint64_t at = r.offset();
    op.in_use = true;
    op.request = r.u32();
    op.tenant = r.u32();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(OpKind::kFlushWrite)) {
      reject(at + 8, item("op", id) + " kind byte " + std::to_string(kind) +
                         " is not an OpKind");
    }
    op.kind = static_cast<OpKind>(kind);
    op.ppn = r.u32();
    op.gc_src = r.u32();
    op.gc_job = r.u32();
    op.lpn = r.u64();
    op.enq_seq = r.u64();
    op.dispatched_at = r.u64();
    op.attempts = r.u16();
    if (oob) op_oob_seqs_[id] = r.u64();

    // Every host op names its request; completion indexes the table.
    const bool host =
        op.kind == OpKind::kHostRead || op.kind == OpKind::kHostWrite;
    if ((host || op.request != kNoRequest32) && op.request >= nreq) {
      reject(at, item("op", id) + " names request " +
                     std::to_string(op.request) + " past the " +
                     std::to_string(nreq) + "-entry request table");
    }
    // The channel, unit, plane and block derive from the ppn.
    if (op.ppn >= g.total_pages()) {
      reject(at + 9, item("op", id) + " ppn " + std::to_string(op.ppn) +
                         " is outside the device's " +
                         std::to_string(g.total_pages()) + " pages");
    }
    if (op.kind == OpKind::kErase && g.decode(op.ppn).page != 0) {
      reject(at + 9, item("erase op", id) + " ppn " + std::to_string(op.ppn) +
                         " is not its block's first page");
    }
    if (op.kind == OpKind::kGcWrite && op.gc_src >= g.total_pages()) {
      reject(at + 13, item("op", id) + " migration source " +
                          std::to_string(op.gc_src) +
                          " is outside the device's " +
                          std::to_string(g.total_pages()) + " pages");
    }
    if (op.kind == OpKind::kGcRead || op.kind == OpKind::kGcWrite ||
        op.kind == OpKind::kErase) {
      job_refs.push_back({id, op.gc_job, at + 17});
    }
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
      require_in_use(q.at + 8 + 4 * k, "op queue", q.queue->at(k));
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
  const std::vector<std::uint64_t> keys = r.vec_u64();
  buffer_.clear();
  buffer_.reserve(keys.size());
  for (const std::uint64_t key : keys) buffer_.emplace(key, false);
  load_ring(r, buffer_fifo_);
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
