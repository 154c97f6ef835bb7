#include "telemetry/tracer.hpp"

#include <gtest/gtest.h>

#include <deque>

namespace ssdk::telemetry {
namespace {

TraceEvent event_at(SimTime begin, Duration len = 100) {
  TraceEvent e;
  e.begin = begin;
  e.end = begin + len;
  e.kind = SpanKind::kBusTransfer;
  e.channel = 2;
  return e;
}

TEST(Tracer, RecordsInOrder) {
  Tracer tracer;
  tracer.record(event_at(10));
  tracer.record(event_at(20));
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].begin, 10u);
  EXPECT_EQ(events[1].begin, 20u);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, OverwriteOldestKeepsTail) {
  TelemetryConfig config;
  config.capacity_events = 4;
  Tracer tracer(config);
  for (SimTime t = 0; t < 10; ++t) tracer.record(event_at(t * 100));
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // The last four recorded events survive, oldest first.
  EXPECT_EQ(events[0].begin, 600u);
  EXPECT_EQ(events[3].begin, 900u);
}

TEST(Tracer, RecordPointIsZeroLength) {
  Tracer tracer;
  tracer.record_point(500, SpanKind::kGcVictim, sim::kInternalTenant, 1, 9,
                      42);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].begin, 500u);
  EXPECT_EQ(events[0].end, 500u);
  EXPECT_EQ(events[0].kind, SpanKind::kGcVictim);
  EXPECT_EQ(events[0].channel, 1u);
  EXPECT_EQ(events[0].unit, 9u);
  EXPECT_EQ(events[0].detail, 42u);
}

TEST(Tracer, DecisionsStoredAndMirroredAsEvents) {
  Tracer tracer;
  KeeperDecision d;
  d.time = 1000;
  d.strategy = "4:2:1:1";
  d.features = "w=0.7";
  d.changed = true;
  tracer.record_decision(d);
  ASSERT_EQ(tracer.decisions().size(), 1u);
  EXPECT_EQ(tracer.decisions()[0].strategy, "4:2:1:1");
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SpanKind::kKeeperDecision);
  EXPECT_EQ(events[0].detail, 0u);  // index into decisions()
}

TEST(Tracer, ClearResetsEverything) {
  Tracer tracer;
  tracer.record(event_at(1));
  tracer.record_decision(KeeperDecision{});
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_TRUE(tracer.decisions().empty());
}

// The ring's storage grows with the events recorded; at capacity it must
// overwrite the oldest events exactly as a ring sized up front would. The
// reference is a deque holding what must survive.
TEST(Tracer, GrowingRingMatchesFixedRingSemantics) {
  for (const std::size_t capacity : {1u, 3u, 64u, 65u, 1000u, 4096u}) {
    TelemetryConfig config;
    config.capacity_events = capacity;
    Tracer tracer(config);
    std::deque<SimTime> expected;
    std::uint64_t recorded = 0;
    const auto check = [&] {
      ASSERT_EQ(tracer.size(), expected.size());
      EXPECT_EQ(tracer.recorded(), recorded);
      EXPECT_EQ(tracer.dropped(), recorded - expected.size());
      const auto events = tracer.events();
      ASSERT_EQ(events.size(), expected.size());
      for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(events[i].begin, expected[i])
            << "capacity " << capacity << " event " << i;
      }
    };
    // Fill in stages across the growth steps, past capacity, then clear
    // (the ring keeps its storage) and go round again.
    for (int round = 0; round < 2; ++round) {
      for (const std::size_t batch :
           {std::size_t{1}, capacity / 2, capacity, 2 * capacity + 7}) {
        for (std::size_t i = 0; i < batch; ++i) {
          const SimTime t = recorded * 10;
          tracer.record(event_at(t));
          ++recorded;
          if (expected.size() == capacity) expected.pop_front();
          expected.push_back(t);
        }
        check();
      }
      tracer.clear();
      expected.clear();
      recorded = 0;
      check();
    }
  }
}

TEST(SpanNames, AllKindsNamed) {
  for (int k = 0; k <= static_cast<int>(SpanKind::kKeeperDecision); ++k) {
    const char* name = span_kind_name(static_cast<SpanKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
  }
  EXPECT_STREQ(op_class_name(OpClass::kHostRead), "host_read");
}

}  // namespace
}  // namespace ssdk::telemetry
