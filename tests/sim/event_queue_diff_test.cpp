// Randomized differential test: the calendar EventQueue against the old
// 4-ary binary heap (HeapEventQueue). (time, seq) is a unique total
// order, so the two must produce bit-identical pop sequences for any
// push/pop interleaving — including same-timestamp bursts (tie-break by
// seq only), far-future GC/mount events that park in the calendar's
// overflow list, and bursts that drain the ring into overflow-only state.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "heap_event_queue.hpp"
#include "util/rng.hpp"

namespace ssdk::sim {
namespace {

void expect_same_pop(EventQueue& calendar, HeapEventQueue& heap) {
  ASSERT_EQ(calendar.size(), heap.size());
  ASSERT_EQ(calendar.next_time(), heap.next_time());
  const Event a = calendar.pop();
  const Event b = heap.pop();
  ASSERT_EQ(a.time, b.time);
  ASSERT_EQ(a.seq, b.seq);
  ASSERT_EQ(a.kind, b.kind);
  ASSERT_EQ(a.a, b.a);
  ASSERT_EQ(a.b, b.b);
}

void drain_identical(EventQueue& calendar, HeapEventQueue& heap) {
  ASSERT_EQ(calendar.size(), heap.size());
  while (!heap.empty()) expect_same_pop(calendar, heap);
  EXPECT_TRUE(calendar.empty());
}

TEST(EventQueueDiff, RandomNearMonotonicTraffic) {
  // Simulator-shaped traffic: the clock is the time of the last pop and
  // pushes land a bounded latency past it, like flash/bus completions.
  ssdk::Rng rng(0x5eed0001);
  EventQueue calendar;
  HeapEventQueue heap;
  SimTime now = 0;
  std::uint64_t payload = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t action = rng.next_u64() % 100;
    if (action < 60 || heap.empty()) {
      const SimTime t = now + rng.next_u64() % 900'000;  // <= ~0.9 ms ahead
      const auto kind = static_cast<EventKind>(rng.next_u64() % 5);
      calendar.push(t, kind, payload, payload * 3);
      heap.push(t, kind, payload, payload * 3);
      ++payload;
    } else {
      now = heap.next_time();
      expect_same_pop(calendar, heap);
    }
  }
  drain_identical(calendar, heap);
}

TEST(EventQueueDiff, SameTimestampBursts) {
  // Many events at identical timestamps: ordering degenerates to pure
  // seq order, the case the write-done event merge depends on.
  ssdk::Rng rng(0x5eed0002);
  EventQueue calendar;
  HeapEventQueue heap;
  SimTime now = 0;
  for (int burst = 0; burst < 300; ++burst) {
    now += rng.next_u64() % 50'000;
    const std::uint64_t width = 1 + rng.next_u64() % 32;
    for (std::uint64_t i = 0; i < width; ++i) {
      calendar.push(now, EventKind::kFlashDone, burst, i);
      heap.push(now, EventKind::kFlashDone, burst, i);
    }
    const std::uint64_t pops = rng.next_u64() % (width + 1);
    for (std::uint64_t i = 0; i < pops; ++i) expect_same_pop(calendar, heap);
  }
  drain_identical(calendar, heap);
}

TEST(EventQueueDiff, FarFutureEventsCrossOverflowHorizon) {
  // GC-erase/mount-scale gaps: events far past the calendar's ~4.2 ms
  // ring span must park in overflow and still pop in exact order, both
  // when near-term traffic keeps arriving and when the ring drains so
  // that only far-future events remain.
  ssdk::Rng rng(0x5eed0003);
  EventQueue calendar;
  HeapEventQueue heap;
  SimTime now = 0;
  std::uint64_t payload = 0;
  for (int round = 0; round < 5000; ++round) {
    const std::uint64_t action = rng.next_u64() % 100;
    if (action < 55 || heap.empty()) {
      // 1 in 8 pushes jumps 5–200 ms ahead — far beyond the ring.
      const bool far = rng.next_u64() % 8 == 0;
      const SimTime delta = far ? 5'000'000 + rng.next_u64() % 195'000'000
                                : rng.next_u64() % 400'000;
      calendar.push(now + delta, EventKind::kBusFree, payload);
      heap.push(now + delta, EventKind::kBusFree, payload);
      ++payload;
    } else {
      const SimTime t = heap.next_time();
      ASSERT_EQ(calendar.next_time(), t);
      expect_same_pop(calendar, heap);
      now = t;
    }
  }
  drain_identical(calendar, heap);
}

TEST(EventQueueDiff, DrainRefillCycles) {
  // Repeatedly drain to empty and refill from a fresh, much later clock:
  // exercises the empty-queue re-basing path.
  ssdk::Rng rng(0x5eed0004);
  EventQueue calendar;
  HeapEventQueue heap;
  SimTime epoch = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    epoch += 1'000'000'000 + rng.next_u64() % 1'000'000'000;  // +1–2 s
    const std::uint64_t n = 1 + rng.next_u64() % 50;
    for (std::uint64_t i = 0; i < n; ++i) {
      const SimTime t = epoch + rng.next_u64() % 4'000'000;
      calendar.push(t, EventKind::kWriteDone, cycle, i);
      heap.push(t, EventKind::kWriteDone, cycle, i);
    }
    drain_identical(calendar, heap);
  }
}

TEST(EventQueueDiff, ClearPreservesSeqCounter) {
  EventQueue calendar;
  HeapEventQueue heap;
  for (std::uint64_t i = 0; i < 10; ++i) {
    calendar.push(100 + i, EventKind::kArrival, i);
    heap.push(100 + i, EventKind::kArrival, i);
  }
  calendar.clear();
  heap.clear();
  EXPECT_TRUE(calendar.empty());
  // Post-clear pushes must keep the unique total order: identical seqs in
  // both queues, continuing after the dropped events.
  calendar.push(500, EventKind::kBusFree, 1);
  heap.push(500, EventKind::kBusFree, 1);
  calendar.push(500, EventKind::kBusFree, 2);
  heap.push(500, EventKind::kBusFree, 2);
  const Event a0 = calendar.pop();
  const Event b0 = heap.pop();
  EXPECT_EQ(a0.seq, b0.seq);
  EXPECT_EQ(a0.seq, 10u);
  expect_same_pop(calendar, heap);
}

}  // namespace
}  // namespace ssdk::sim
