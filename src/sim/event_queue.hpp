// Discrete-event kernel: a calendar queue of typed events ordered by
// (time, sequence). Sequence numbers make ordering of simultaneous events
// deterministic, which in turn makes every simulation bit-reproducible.
//
// (time, seq) is a *unique* total order — no two events ever compare
// equal — so the pop sequence is independent of the container's internal
// layout. The calendar layout exploits the simulator's near-monotonic
// timestamp distribution: events live at most one erase latency (~3.5 ms)
// past the clock, so a ring of kBuckets time slots of kSlotShift width
// (64 x 8.192 us ~= 524 us) covers the dense pending window: reads,
// transfers, and programs all schedule well inside it, keeping buckets
// at ~1 entry so the pop-time min-scan stays trivial (wider slots make
// the scan, not the ring, the bottleneck). Push drops an event into its
// slot's bucket in O(1); pop takes the cached minimum and re-finds the
// next one with a single countr_zero over the occupancy bitmask plus a
// scan of one (typically 1-2 entry) bucket. Events beyond the ring's
// horizon — erases and epoch timers, rare next to page traffic — wait
// in an overflow list until the window reaches them. next_time() is a cached load, which
// matters because the run loop compares it against the arrival cursor on
// every iteration.
//
// The previous 4-ary binary-heap implementation is preserved verbatim as
// sim::HeapEventQueue (tests/sim/heap_event_queue.hpp) and drives the
// randomized differential test that pins the two pop orders together.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/archive.hpp"
#include "util/check.hpp"
#include "util/time_types.hpp"

namespace ssdk::sim {

enum class EventKind : std::uint8_t {
  kArrival,     ///< a = request index; the device never schedules one
                ///< (arrivals come from its request cursor)
  kFlashDone,   ///< plane finished its flash phase; a = plane, b = op id
  kBusFree,     ///< channel bus released; a = channel, b = op id or kNoOp
  kBufferDone,  ///< DRAM write-buffer latency elapsed; a = request index,
                ///< b = number of pages completing
  kWriteDone,   ///< non-pipelined write: bus release + program completion
                ///< collapsed into one event (they share a timestamp and
                ///< adjacent seqs, so nothing can pop between them);
                ///< a = unit, b = op id
};

inline constexpr std::uint64_t kNoOp = ~std::uint64_t{0};

struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kArrival;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class EventQueue {
 public:
  /// Pre-size the per-slot buckets so steady-state pushes never
  /// reallocate. The pending set is bounded by in-flight hardware (units +
  /// channels), not by the submitted trace, so a small per-bucket reserve
  /// is enough regardless of `capacity`.
  void reserve(std::size_t capacity) {
    const std::size_t per_bucket =
        std::min<std::size_t>(64, std::max<std::size_t>(8, capacity / kBuckets));
    for (auto& b : buckets_) b.reserve(per_bucket);
    overflow_.reserve(8);
  }

  void push(SimTime time, EventKind kind, std::uint64_t a,
            std::uint64_t b = 0) {
    insert(Event{time, next_seq_++, kind, a, b});
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Drop every pending event (power loss: in-flight work vanishes). The
  /// sequence counter is preserved so post-recovery events keep the unique
  /// total order with anything already recorded.
  void clear() {
    std::uint64_t occ = occ_;
    while (occ != 0) {
      const unsigned i = static_cast<unsigned>(std::countr_zero(occ));
      buckets_[i].clear();
      occ &= occ - 1;
    }
    overflow_.clear();
    occ_ = 0;
    size_ = 0;
    base_slot_ = 0;
  }

  /// Earliest event time; queue must be non-empty.
  SimTime next_time() const {
    assert(size_ != 0);
    return min_time_;
  }

  /// Remove and return the earliest event; queue must be non-empty.
  Event pop() {
    assert(size_ != 0);
    auto& bucket = buckets_[min_bucket_];
    const Event out = bucket[min_pos_];
    bucket[min_pos_] = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) occ_ &= ~(std::uint64_t{1} << min_bucket_);
    --size_;
    if (size_ != 0) {
      // Every remaining event is later than the one just popped, so the
      // window can slide up to its slot — future pushes are >= now and
      // therefore >= this slot as well.
      base_slot_ = slot_of(out.time);
      recompute_min();
    }
    return out;
  }

  /// Audit the queue against the simulation clock: every pending event is
  /// in the bucket its time slot maps to (or parked in overflow beyond the
  /// ring's horizon), no event is scheduled before `now` (time only moves
  /// forward), sequence numbers are unique and below the allocation
  /// cursor, and the cached minimum / occupancy mask match a brute-force
  /// rescan — the properties the unique (time, seq) total order and
  /// bit-reproducibility rest on. Throws util::InvariantViolation on the
  /// first breach.
  void check_invariants(SimTime now) const {
    std::size_t counted = 0;
    std::vector<std::uint64_t> seqs;
    seqs.reserve(size_);
    const Event* min_seen = nullptr;
    auto audit_event = [&](const Event& e, const std::string& where) {
      SSDK_CHECK_MSG(e.time >= now,
                     "event_queue: event in " + where + " scheduled at " +
                         std::to_string(e.time) + " which is before now " +
                         std::to_string(now));
      SSDK_CHECK_MSG(e.seq < next_seq_,
                     "event_queue: " + where + " carries seq " +
                         std::to_string(e.seq) + " >= next_seq " +
                         std::to_string(next_seq_));
      if (min_seen == nullptr || earlier(e, *min_seen)) min_seen = &e;
      seqs.push_back(e.seq);
      ++counted;
    };
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const bool occupied = (occ_ >> i) & 1;
      SSDK_CHECK_MSG(occupied == !buckets_[i].empty(),
                     "event_queue: occupancy bit " + std::to_string(i) +
                         " disagrees with bucket contents");
      for (const Event& e : buckets_[i]) {
        const std::uint64_t s = slot_of(e.time);
        SSDK_CHECK_MSG(s >= base_slot_ && s - base_slot_ < kBuckets,
                       "event_queue: bucket " + std::to_string(i) +
                           " event at slot " + std::to_string(s) +
                           " outside window at base " +
                           std::to_string(base_slot_));
        SSDK_CHECK_MSG((s & kBucketMask) == i,
                       "event_queue: event at slot " + std::to_string(s) +
                           " filed in bucket " + std::to_string(i));
        audit_event(e, "bucket " + std::to_string(i));
      }
    }
    for (const Event& e : overflow_) {
      SSDK_CHECK_MSG(slot_of(e.time) >= base_slot_,
                     "event_queue: overflow event at slot " +
                         std::to_string(slot_of(e.time)) +
                         " before window base " + std::to_string(base_slot_));
      audit_event(e, "overflow");
    }
    SSDK_CHECK_MSG(counted == size_,
                   "event_queue: size counter " + std::to_string(size_) +
                       " != stored events " + std::to_string(counted));
    if (size_ != 0) {
      SSDK_CHECK_MSG(min_seen->time == min_time_ && min_seen->seq == min_seq_,
                     "event_queue: cached minimum (t=" +
                         std::to_string(min_time_) + ", seq=" +
                         std::to_string(min_seq_) +
                         ") is not the earliest pending event");
      SSDK_CHECK_MSG(min_bucket_ < kBuckets &&
                         min_pos_ < buckets_[min_bucket_].size() &&
                         buckets_[min_bucket_][min_pos_].seq == min_seq_,
                     "event_queue: cached minimum location is stale");
    }
    std::sort(seqs.begin(), seqs.end());
    SSDK_CHECK_MSG(std::adjacent_find(seqs.begin(), seqs.end()) == seqs.end(),
                   "event_queue: duplicate event sequence number");
  }

  /// Serialize in canonical ascending (time, seq) order (field-wise —
  /// Event has padding). The pop sequence does not depend on the internal
  /// layout, and the canonical order makes save(load(save)) byte-identical
  /// even though buckets use order-insensitive swap-removal. The wire
  /// format is unchanged from the binary-heap implementation.
  void save_state(snapshot::StateWriter& w) const {
    std::vector<Event> events;
    events.reserve(size_);
    std::uint64_t occ = occ_;
    while (occ != 0) {
      const unsigned i = static_cast<unsigned>(std::countr_zero(occ));
      events.insert(events.end(), buckets_[i].begin(), buckets_[i].end());
      occ &= occ - 1;
    }
    events.insert(events.end(), overflow_.begin(), overflow_.end());
    std::sort(events.begin(), events.end(),
              [](const Event& x, const Event& y) { return earlier(x, y); });
    w.tag("EVTQ");
    w.u64(next_seq_);
    w.u64(events.size());
    for (const Event& e : events) {
      w.u64(e.time);
      w.u64(e.seq);
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.u64(e.a);
      w.u64(e.b);
    }
  }

  /// Load a saved queue whose owner's clock stands at `now`. Rejects, with
  /// the field's offset, a kind byte that is not an EventKind, a time
  /// before `now`, and a seq at or past next_seq or seen twice. Returns
  /// each event with the payload offset of its record (time at +0, seq +8,
  /// kind +16, a +17, b +25), in payload order, so the owner can check the
  /// a/b payloads against state it loads later.
  std::vector<std::pair<Event, std::uint64_t>> load_state(
      snapshot::StateReader& r, SimTime now) {
    r.tag("EVTQ");
    clear();
    next_seq_ = r.u64();
    const std::uint64_t n = r.checked_count(8 + 8 + 1 + 8 + 8);
    std::vector<std::pair<Event, std::uint64_t>> loaded;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seqs;  // (seq, at)
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t at = r.offset();
      Event e;
      e.time = r.u64();
      e.seq = r.u64();
      const std::uint8_t kind = r.u8();
      e.a = r.u64();
      e.b = r.u64();
      if (e.time < now) {
        reject(at, "time " + std::to_string(e.time) + " is before the clock " +
                       std::to_string(now));
      }
      if (e.seq >= next_seq_) {
        reject(at + 8, "seq " + std::to_string(e.seq) + " is not below " +
                           "next_seq " + std::to_string(next_seq_));
      }
      if (kind > static_cast<std::uint8_t>(EventKind::kWriteDone)) {
        reject(at + 16, "kind byte " + std::to_string(kind) +
                            " is not an EventKind");
      }
      e.kind = static_cast<EventKind>(kind);
      insert(e);
      loaded.emplace_back(e, at);
      seqs.emplace_back(e.seq, at + 8);
    }
    // (time, seq) must be a unique total order: no seq may repeat.
    std::sort(seqs.begin(), seqs.end());
    for (std::size_t k = 1; k < seqs.size(); ++k) {
      if (seqs[k].first == seqs[k - 1].first) {
        reject(seqs[k].second,
               "seq " + std::to_string(seqs[k].first) + " is used twice");
      }
    }
    return loaded;
  }

 private:
  static constexpr unsigned kSlotShift = 13;  ///< 8.192 us per slot
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::uint64_t kBucketMask = kBuckets - 1;

  static std::uint64_t slot_of(SimTime t) { return t >> kSlotShift; }

  [[noreturn]] static void reject(std::uint64_t at, const std::string& what) {
    throw snapshot::SnapshotError(
        "snapshot: event " + what + " at offset " + std::to_string(at), at);
  }

  static bool earlier(const Event& x, const Event& y) {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  void insert(const Event& e) {
    const std::uint64_t s = slot_of(e.time);
    if (size_ == 0) {
      base_slot_ = s;
      auto& bucket = buckets_[s & kBucketMask];
      bucket.push_back(e);
      occ_ |= std::uint64_t{1} << (s & kBucketMask);
      size_ = 1;
      min_time_ = e.time;
      min_seq_ = e.seq;
      min_bucket_ = static_cast<std::uint32_t>(s & kBucketMask);
      min_pos_ = 0;
      return;
    }
    if (s < base_slot_) {
      // Only snapshot load or out-of-order test traffic lands here — the
      // simulator never schedules before its clock. Slide the window down
      // by rebuilding around the new earliest slot.
      rebuild(e);
      return;
    }
    ++size_;
    if (s - base_slot_ >= kBuckets) {
      overflow_.push_back(e);
      if (overflow_.size() == 1 || earlier(e, overflow_min_)) {
        overflow_min_ = e;
      }
      return;
    }
    auto& bucket = buckets_[s & kBucketMask];
    bucket.push_back(e);
    occ_ |= std::uint64_t{1} << (s & kBucketMask);
    if (earlier(e, Event{min_time_, min_seq_})) {
      min_time_ = e.time;
      min_seq_ = e.seq;
      min_bucket_ = static_cast<std::uint32_t>(s & kBucketMask);
      min_pos_ = static_cast<std::uint32_t>(bucket.size() - 1);
    }
  }

  /// Re-find the earliest pending event after a pop. The first occupied
  /// bucket at or after base_slot_ (one rotate + countr_zero on the
  /// occupancy mask) holds the earliest slot in the window; ties within a
  /// slot are broken by scanning its handful of entries. Overflow events
  /// sit at least a full window past base_slot_ when parked, but the base
  /// advances — once the ring catches up to them the queue is rebuilt
  /// around the new minimum so the cached min always lives in a bucket.
  void recompute_min() {
    if (occ_ == 0) {
      rebuild();
      return;
    }
    const unsigned start = static_cast<unsigned>(base_slot_ & kBucketMask);
    const unsigned offset =
        static_cast<unsigned>(std::countr_zero(std::rotr(occ_, start)));
    const unsigned bucket_index = (start + offset) & kBucketMask;
    const auto& bucket = buckets_[bucket_index];
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < bucket.size(); ++i) {
      if (earlier(bucket[i], bucket[best])) best = i;
    }
    if (!overflow_.empty() && earlier(overflow_min_, bucket[best])) {
      rebuild();
      return;
    }
    min_time_ = bucket[best].time;
    min_seq_ = bucket[best].seq;
    min_bucket_ = bucket_index;
    min_pos_ = best;
  }

  /// Collect every stored event and re-insert around the true earliest
  /// slot. Rare by construction: it runs only when the ring drains into
  /// overflow-only state, when a parked overflow event becomes the
  /// minimum, or on an out-of-order insert below the window base.
  void rebuild() { rebuild_with(nullptr); }
  void rebuild(const Event& extra) { rebuild_with(&extra); }

  void rebuild_with(const Event* extra) {
    std::vector<Event> events;
    events.reserve(size_ + 1);
    std::uint64_t occ = occ_;
    while (occ != 0) {
      const unsigned i = static_cast<unsigned>(std::countr_zero(occ));
      events.insert(events.end(), buckets_[i].begin(), buckets_[i].end());
      buckets_[i].clear();
      occ &= occ - 1;
    }
    events.insert(events.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    if (extra != nullptr) events.push_back(*extra);
    occ_ = 0;
    size_ = 0;
    SSDK_ASSERT(!events.empty());
    // Re-insert an earliest-slot event first: the empty-queue insert path
    // re-bases the window on it, and everything else then lands at or
    // above the base without triggering another rebuild.
    std::size_t first = 0;
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (slot_of(events[i].time) < slot_of(events[first].time)) first = i;
    }
    std::swap(events[0], events[first]);
    for (const Event& e : events) insert(e);
  }

  // Snapshot note: save_state writes the canonical (time, seq)-sorted
  // event list plus next_seq_; every layout member below is rebuilt by
  // load_state's insert() calls, so the wire format stays independent of
  // the calendar's bucketing.
  // ssdk-snap: skip(buckets_): layout rebuilt by insert() on load; wire format is the canonical event list
  std::array<std::vector<Event>, kBuckets> buckets_;
  // ssdk-snap: skip(overflow_): layout rebuilt by insert() on load
  std::vector<Event> overflow_;  ///< events at slots >= base_slot_ + kBuckets
  // ssdk-snap: skip(overflow_min_): cache rebuilt by insert() on load
  Event overflow_min_;           ///< earliest parked event (valid iff any)
  // ssdk-snap: skip(occ_): occupancy bitmap rebuilt by insert() on load
  std::uint64_t occ_ = 0;        ///< bit i set iff buckets_[i] is non-empty
  // ssdk-snap: skip(base_slot_): window base re-established by the first insert() on load
  std::uint64_t base_slot_ = 0;  ///< lowest slot the window admits
  // ssdk-snap: skip(size_): recomputed by insert() on load; equals the serialized event count
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  // Cached minimum (valid iff size_ > 0); always resident in a bucket.
  // ssdk-snap: skip(min_time_): cached minimum rebuilt by insert() on load
  SimTime min_time_ = 0;
  // ssdk-snap: skip(min_seq_): cached minimum rebuilt by insert() on load
  std::uint64_t min_seq_ = 0;
  // ssdk-snap: skip(min_bucket_): cached minimum position rebuilt by insert() on load
  std::uint32_t min_bucket_ = 0;
  // ssdk-snap: skip(min_pos_): cached minimum position rebuilt by insert() on load
  std::uint32_t min_pos_ = 0;
};

}  // namespace ssdk::sim
