// Whole-device invariant audit (see util/check.hpp for the policy).
//
// Everything here is read-only and runs only when a caller asks for an
// audit — explicitly, after a snapshot load / fork in checked builds, or
// on the periodic cadence set via set_audit_interval(). The checks target
// the redundant state the hot path maintains for speed (the cached grant
// keys, free lists, FIFO mirrors): exactly the bookkeeping a subtle
// scheduling bug corrupts first.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ssd/ssd.hpp"
#include "util/check.hpp"

namespace ssdk::ssd {

namespace {

std::string op_str(std::uint64_t op_id) {
  return "op " + std::to_string(op_id);
}

}  // namespace

void Ssd::check_invariants() const {
  // Delegated audits first: FTL (mapping bijection + block bookkeeping)
  // and the event kernel (heap order, time floor, seq uniqueness).
  ftl_.check_invariants();
  events_.check_invariants(now_);

  const auto& geom = options_.geometry;

  // --- structural sizes ----------------------------------------------------
  SSDK_CHECK_MSG(channels_.size() == geom.channels,
                 "ssd: channel state count " +
                     std::to_string(channels_.size()) +
                     " != geometry channels " + std::to_string(geom.channels));
  SSDK_CHECK_MSG(units_.size() == geom.channels * units_per_channel_,
                 "ssd: unit state count " + std::to_string(units_.size()) +
                     " != channels * units_per_channel");
  SSDK_CHECK_MSG(channel_busy_ns_.size() == channels_.size() &&
                     unit_busy_ns_.size() == units_.size(),
                 "ssd: utilization accumulator sizes out of step");
  SSDK_CHECK_MSG(arrival_cursor_ <= requests_.size(),
                 "ssd: arrival cursor " + std::to_string(arrival_cursor_) +
                     " past request table size " +
                     std::to_string(requests_.size()));
  SSDK_CHECK_MSG(gc_job_of_plane_.size() == geom.total_planes(),
                 "ssd: gc plane registry size != plane count");

  // --- op slab: every op is either in use or on the free list, once -------
  std::vector<std::uint8_t> on_free_list(ops_.size(), 0);
  for (const OpId id : free_ops_) {
    SSDK_CHECK_MSG(id < ops_.size(),
                   "ssd: free list holds out-of-range " + op_str(id));
    SSDK_CHECK_MSG(!on_free_list[id],
                   "ssd: free list holds " + op_str(id) + " twice");
    on_free_list[id] = 1;
    SSDK_CHECK_MSG(!ops_[id].in_use,
                   "ssd: " + op_str(id) + " is in use but on the free list");
  }
  std::size_t in_use = 0;
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    if (ops_[id].in_use) {
      ++in_use;
    } else {
      SSDK_CHECK_MSG(on_free_list[id],
                     "ssd: " + op_str(id) +
                         " is neither in use nor on the free list (leak)");
    }
  }
  SSDK_CHECK_MSG(in_use + free_ops_.size() == ops_.size(),
                 "ssd: op slab accounting broken: " + std::to_string(in_use) +
                     " in use + " + std::to_string(free_ops_.size()) +
                     " free != " + std::to_string(ops_.size()));

  // --- in-use op fields reference live structures --------------------------
  SSDK_CHECK_MSG(op_oob_seqs_.size() ==
                     (ftl_.oob().enabled() ? ops_.size() : 0),
                 "ssd: " + std::to_string(op_oob_seqs_.size()) +
                     " op OOB seqs for " + std::to_string(ops_.size()) +
                     " op slots");
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    const PageOp& op = ops_[id];
    if (!op.in_use) continue;
    if (op.request != kNoRequest32) {
      SSDK_CHECK_MSG(op.request < requests_.size(),
                     "ssd: " + op_str(id) + " references request " +
                         std::to_string(op.request) + " out of range");
      SSDK_CHECK_MSG(requests_[op.request].remaining > 0,
                     "ssd: " + op_str(id) +
                         " outstanding for already-completed request " +
                         std::to_string(op.request));
    }
    if (op.gc_job != kNoJob) {
      SSDK_CHECK_MSG(op.gc_job < gc_jobs_.size() && gc_jobs_[op.gc_job].active,
                     "ssd: " + op_str(id) + " references inactive gc job " +
                         std::to_string(op.gc_job));
    }
    SSDK_CHECK_MSG(op.enq_seq < next_enq_seq_,
                   "ssd: " + op_str(id) + " carries enq_seq " +
                       std::to_string(op.enq_seq) + " >= next_enq_seq");
    if (ftl_.oob().enabled() &&
        (op.kind == OpKind::kHostWrite || op.kind == OpKind::kFlushWrite)) {
      const std::uint64_t seq = op_oob_seqs_[id];
      SSDK_CHECK_MSG(seq > 0 && seq < ftl_.oob().next_seq(),
                     "ssd: " + op_str(id) + " carries oob_seq " +
                         std::to_string(seq) + " outside (0, next_seq)");
    }
    // Placed ops carry a page of the device; unit_of and friends decode it.
    SSDK_CHECK_MSG(op.ppn < geom.total_pages(),
                   "ssd: " + op_str(id) + " carries ppn " +
                       std::to_string(op.ppn) + " outside the device");
  }

  // --- op queues: members are live and queued at most once -----------------
  std::vector<std::uint8_t> queued(ops_.size(), 0);
  const auto check_queue = [&](const OpQueue& q, const char* where,
                               std::uint64_t index) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      const OpId id = q.at(i);
      SSDK_CHECK_MSG(id < ops_.size() && ops_[id].in_use,
                     "ssd: " + std::string(where) + " " +
                         std::to_string(index) + " queues dead " + op_str(id));
      SSDK_CHECK_MSG(!queued[id],
                     "ssd: " + op_str(id) + " sits in two op queues (seen "
                         "again in " + std::string(where) + " " +
                         std::to_string(index) + ")");
      queued[id] = 1;
    }
  };

  // Units whose array read finished but whose data still sits in the page
  // register: they stay busy while the op waits in the channel read_q for
  // the bus, and their busy_until (the sense completion) is already in
  // the past. Collect them so the staleness check below can except them.
  std::vector<std::uint8_t> holds_parked_read(units_.size(), 0);
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    check_queue(channels_[c].read_q, "channel read_q", c);
    const OpQueue& rq = channels_[c].read_q;
    for (std::size_t i = 0; i < rq.size(); ++i) {
      holds_parked_read[unit_of(ops_[rq.at(i)])] = 1;
    }
  }
  for (std::size_t u = 0; u < units_.size(); ++u) {
    check_queue(units_[u].read_wait, "unit read_wait", u);
    check_queue(units_[u].erase_wait, "unit erase_wait", u);
    check_queue(units_[u].write_q, "unit write_q", u);
  }

  // --- busy deadlines and the cached write-grant keys ----------------------
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const ChannelState& ch = channels_[c];
    SSDK_CHECK_MSG(!ch.bus_busy || ch.bus_free_at >= now_,
                   "ssd: channel " + std::to_string(c) +
                       " bus busy with release time " +
                       std::to_string(ch.bus_free_at) + " in the past (now " +
                       std::to_string(now_) + ")");
  }
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const UnitState& unit = units_[u];
    SSDK_CHECK_MSG(grant_seq_[u] == grant_key(u),
                   "ssd: unit " + std::to_string(u) + " grant_seq cache " +
                       std::to_string(grant_seq_[u]) + " != expected " +
                       std::to_string(grant_key(u)) +
                       " from (busy, write_q front)");
    // A past busy_until is legal only while the unit's read op is parked
    // in the channel read_q (page register held, waiting for the bus).
    SSDK_CHECK_MSG(!unit.busy || unit.busy_until >= now_ ||
                       holds_parked_read[u],
                   "ssd: unit " + std::to_string(u) +
                       " busy with completion time " +
                       std::to_string(unit.busy_until) + " in the past (now " +
                       std::to_string(now_) + ") and no read parked on the "
                       "channel bus");
  }

  // --- write buffer: key map vs. FIFO mirror -------------------------------
  if (options_.write_buffer.capacity_pages > 0) {
    SSDK_CHECK_MSG(buffer_.size() <= options_.write_buffer.capacity_pages,
                   "ssd: write buffer holds " + std::to_string(buffer_.size()) +
                       " pages over capacity " +
                       std::to_string(options_.write_buffer.capacity_pages));
  } else {
    SSDK_CHECK_MSG(buffer_.empty() && buffer_fifo_.empty(),
                   "ssd: write buffer disabled but not empty");
  }
  std::vector<std::uint64_t> fifo_keys;
  fifo_keys.reserve(buffer_fifo_.size());
  for (std::size_t i = 0; i < buffer_fifo_.size(); ++i) {
    fifo_keys.push_back(buffer_fifo_.at(i));
  }
  std::sort(fifo_keys.begin(), fifo_keys.end());
  // ssdk-lint: allow(unordered-iter): membership audit; per-key checks are
  // independent, so visit order cannot affect the outcome.
  for (const auto& [key, kept] : buffer_) {
    SSDK_CHECK_MSG(!kept, "ssd: buffer key " + std::to_string(key) +
                              " left with the compaction marker set");
    SSDK_CHECK_MSG(std::binary_search(fifo_keys.begin(), fifo_keys.end(), key),
                   "ssd: dirty buffer key " + std::to_string(key) +
                       " missing from the eviction FIFO");
  }
  SSDK_CHECK_MSG(buffer_fifo_.size() >= buffer_.size(),
                 "ssd: eviction FIFO smaller than the live buffer");

  // --- requests: side counts within the page count ------------------------
  SSDK_CHECK_MSG(request_tallies_.size() <= requests_.size(),
                 "ssd: " + std::to_string(request_tallies_.size()) +
                     " request tallies for " +
                     std::to_string(requests_.size()) + " requests");
  for (std::size_t i = 0; i < request_tallies_.size(); ++i) {
    const RequestTally& t = request_tallies_[i];
    SSDK_CHECK_MSG(t.volatile_pages <= requests_[i].page_count &&
                       t.failed <= requests_[i].page_count,
                   "ssd: request " + std::to_string(i) + " tallies " +
                       std::to_string(t.volatile_pages) + " buffered and " +
                       std::to_string(t.failed) +
                       " failed pages against its page count " +
                       std::to_string(requests_[i].page_count));
  }

  // --- flush barriers mirror the in-flight kFlushWrite population ----------
  for (const FlushBarrier& fb : flush_barriers_) {
    SSDK_CHECK_MSG(fb.request < requests_.size() &&
                       requests_[fb.request].remaining > 0,
                   "ssd: flush barrier for dead request " +
                       std::to_string(fb.request));
    SSDK_CHECK_MSG(fb.threshold <= next_enq_seq_,
                   "ssd: flush barrier threshold " +
                       std::to_string(fb.threshold) + " > next_enq_seq");
    std::uint32_t actual = 0;
    for (std::size_t id = 0; id < ops_.size(); ++id) {
      const PageOp& op = ops_[id];
      if (op.in_use && op.kind == OpKind::kFlushWrite &&
          op.enq_seq < fb.threshold) {
        ++actual;
      }
    }
    SSDK_CHECK_MSG(fb.remaining > 0 && fb.remaining == actual,
                   "ssd: flush barrier for request " +
                       std::to_string(fb.request) + " counts " +
                       std::to_string(fb.remaining) +
                       " outstanding flush writes, actual " +
                       std::to_string(actual));
  }

  // --- powered-off devices hold no volatile work ---------------------------
  if (powered_off_) {
    SSDK_CHECK_MSG(events_.empty() && ops_.empty() && buffer_.empty() &&
                       flush_barriers_.empty(),
                   "ssd: powered-off device still holds in-flight state");
  }

  // --- GC job registry <-> job slab ----------------------------------------
  for (std::size_t p = 0; p < gc_job_of_plane_.size(); ++p) {
    const std::uint32_t idx = gc_job_of_plane_[p];
    if (idx == kNoJob) continue;
    SSDK_CHECK_MSG(idx < gc_jobs_.size(),
                   "ssd: plane " + std::to_string(p) +
                       " registers out-of-range gc job " + std::to_string(idx));
    const GcJob& job = gc_jobs_[idx];
    SSDK_CHECK_MSG(job.active && !job.rescue && job.plane_id == p,
                   "ssd: plane " + std::to_string(p) + " registers gc job " +
                       std::to_string(idx) +
                       " that is inactive, a rescue, or on another plane");
  }
  for (std::size_t j = 0; j < gc_jobs_.size(); ++j) {
    const GcJob& job = gc_jobs_[j];
    if (!job.active || job.rescue) continue;
    SSDK_CHECK_MSG(job.plane_id < gc_job_of_plane_.size() &&
                       gc_job_of_plane_[job.plane_id] == j,
                   "ssd: active gc job " + std::to_string(j) +
                       " not registered at its plane " +
                       std::to_string(job.plane_id));
  }

  // --- admission scheduler <-> request table -------------------------------
  sched_.check_invariants();
  std::vector<std::uint64_t> held = sched_.pending_requests();
  SSDK_CHECK_MSG(held.size() == sched_.pending(),
                 "ssd: scheduler pending count " +
                     std::to_string(sched_.pending()) +
                     " != enumerated held requests " +
                     std::to_string(held.size()));
  for (const std::uint64_t idx : held) {
    SSDK_CHECK_MSG(idx < arrival_cursor_,
                   "ssd: scheduler holds request " + std::to_string(idx) +
                       " that never arrived (cursor " +
                       std::to_string(arrival_cursor_) + ")");
    const RequestState& rs = requests_[idx];
    // A held request must be virgin: no page dispatched, nothing failed,
    // nothing absorbed by the write buffer.
    const RequestTally t = tally(idx);
    SSDK_CHECK_MSG(rs.remaining == rs.page_count && t.failed == 0 &&
                       t.volatile_pages == 0,
                   "ssd: scheduler holds request " + std::to_string(idx) +
                       " that already started executing");
  }
  std::sort(held.begin(), held.end());
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    const PageOp& op = ops_[id];
    if (!op.in_use || op.request == kNoRequest32) continue;
    SSDK_CHECK_MSG(
        !std::binary_search(held.begin(), held.end(), op.request),
        "ssd: " + op_str(id) + " in flight for request " +
            std::to_string(op.request) + " the scheduler still holds");
  }
  // Admission accounting: every arrived-but-incomplete request is either
  // held (pending) or admitted (outstanding). Power cuts orphan admitted
  // requests without a completion, so the equality only holds on devices
  // that never cut power.
  if (metrics_.counters().power_cycles == 0 && !cut_fired_) {
    std::uint64_t incomplete = 0;
    for (std::uint64_t i = 0; i < arrival_cursor_; ++i) {
      if (requests_[i].remaining > 0) ++incomplete;
    }
    SSDK_CHECK_MSG(incomplete == sched_.outstanding() + held.size(),
                   "ssd: " + std::to_string(incomplete) +
                       " incomplete arrived requests != scheduler "
                       "outstanding " +
                       std::to_string(sched_.outstanding()) + " + held " +
                       std::to_string(held.size()));
  }
  if (powered_off_) {
    SSDK_CHECK_MSG(sched_.pending() == 0 && sched_.outstanding() == 0,
                   "ssd: powered-off device still holds scheduler state");
  }
}

}  // namespace ssdk::ssd
