// Unit tests for the admission scheduler (src/sched): policy ordering
// semantics, admission-window bookkeeping, copy/serialization
// round-trips and the structural invariants the device audit calls into.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/fairness.hpp"
#include "snapshot/archive.hpp"
#include "util/check.hpp"

namespace ssdk::sched {
namespace {

/// Drain the scheduler and return the granted tenants in order.
std::vector<sim::TenantId> drain(Scheduler& s) {
  std::vector<sim::TenantId> order;
  Grant g;
  while (s.pick(g)) order.push_back(g.tenant);
  return order;
}

TEST(SchedPolicy, NamesRoundTrip) {
  for (const Policy p : {Policy::kFifo, Policy::kWfq, Policy::kDrr,
                         Policy::kWeightedShare}) {
    EXPECT_EQ(parse_policy(policy_name(p)), p);
  }
  EXPECT_THROW(parse_policy("round_robin"), std::invalid_argument);
}

TEST(SchedConfigValidate, RejectsBadShares) {
  SchedConfig config;
  config.shares.push_back({.tenant = 0, .weight = 0});
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = SchedConfig{};
  config.shares.push_back({.tenant = 1, .weight = 2});
  config.shares.push_back({.tenant = 1, .weight = 3});
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = SchedConfig{};
  config.shares.push_back({.tenant = 0, .weight = 4, .slo_target_us = 500});
  config.shares.push_back({.tenant = 1, .weight = 1});
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.weight_of(0), 4u);
  EXPECT_EQ(config.weight_of(7), 1u);  // default
  EXPECT_EQ(config.slo_target_us_of(0), 500u);
  EXPECT_EQ(config.slo_target_us_of(1), 0u);
}

TEST(SchedFifo, UnlimitedWindowGrantsInArrivalOrder) {
  const SchedConfig config;  // fifo, unlimited
  EXPECT_TRUE(config.schedule_neutral());
  auto s = make_scheduler(config);
  Grant g;
  EXPECT_FALSE(s->pick(g));
  s->enqueue(10, 2, 1, 100);
  s->enqueue(11, 0, 4, 100);
  s->enqueue(12, 2, 2, 200);
  ASSERT_TRUE(s->pick(g));
  EXPECT_EQ(g.request_index, 10u);
  EXPECT_EQ(g.tenant, 2u);
  EXPECT_EQ(g.enqueued_at, 100u);
  EXPECT_EQ(g.decision_seq, 0u);
  ASSERT_TRUE(s->pick(g));
  EXPECT_EQ(g.request_index, 11u);
  ASSERT_TRUE(s->pick(g));
  EXPECT_EQ(g.request_index, 12u);
  EXPECT_EQ(g.decision_seq, 2u);
  EXPECT_FALSE(s->pick(g));
  EXPECT_EQ(s->decisions(), 3u);
  EXPECT_EQ(s->outstanding(), 3u);
  s->check_invariants();  // empty queue: the neutral invariant holds
}

TEST(SchedFifo, FiniteWindowClosesAndReopens) {
  SchedConfig config;
  config.max_outstanding_requests = 2;
  auto s = make_scheduler(config);
  for (std::uint64_t i = 0; i < 4; ++i) s->enqueue(i, 0, 1, 0);
  Grant g;
  ASSERT_TRUE(s->pick(g));
  ASSERT_TRUE(s->pick(g));
  EXPECT_FALSE(s->pick(g));  // window full
  EXPECT_EQ(s->pending(), 2u);
  EXPECT_EQ(s->outstanding(), 2u);
  s->check_invariants();
  s->on_complete(0);
  ASSERT_TRUE(s->pick(g));
  EXPECT_EQ(g.request_index, 2u);
  EXPECT_FALSE(s->pick(g));
  EXPECT_EQ(s->pending_requests(), (std::vector<std::uint64_t>{3}));

  // A backlog spread over interleaved tenants drains in arrival order too.
  s = make_scheduler(config);
  const sim::TenantId tenant_of[] = {2, 0, 1, 0, 2, 1};
  for (std::uint64_t i = 0; i < 6; ++i) s->enqueue(i, tenant_of[i], 1, i);
  std::vector<std::uint64_t> admitted;
  for (int completions = 0; completions < 6; ++completions) {
    while (s->pick(g)) admitted.push_back(g.request_index);
    s->check_invariants();
    s->on_complete(g.tenant);
  }
  EXPECT_EQ(admitted, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s->outstanding(), 0u);
}

TEST(SchedFifo, CompletionUnderflowThrows) {
  auto s = make_scheduler(SchedConfig{});
  EXPECT_THROW(s->on_complete(0), util::InvariantViolation);
}

TEST(SchedWfq, WeightsShapeTheBacklogDrain) {
  SchedConfig config;
  config.policy = Policy::kWfq;
  config.shares.push_back({.tenant = 0, .weight = 4});
  config.shares.push_back({.tenant = 1, .weight = 1});
  auto s = make_scheduler(config);
  // Backlog both tenants with one-page requests, then drain: start-time
  // fair queueing interleaves them 4:1.
  for (std::uint64_t i = 0; i < 8; ++i) s->enqueue(i, 0, 1, 0);
  for (std::uint64_t i = 8; i < 16; ++i) s->enqueue(i, 1, 1, 0);
  const auto order = drain(*s);
  ASSERT_EQ(order.size(), 16u);
  const auto t0_in_first_10 = static_cast<std::size_t>(
      std::count(order.begin(), order.begin() + 10, 0u));
  EXPECT_EQ(t0_in_first_10, 8u);  // 4:1 service within the first window
  EXPECT_EQ(order[0], 0u);        // tie at vtime 0 broken by enqueue seq
  EXPECT_EQ(order[1], 1u);        // the light tenant is not starved
}

TEST(SchedWfq, EqualWeightsAlternate) {
  SchedConfig config;
  config.policy = Policy::kWfq;
  auto s = make_scheduler(config);
  for (std::uint64_t i = 0; i < 3; ++i) s->enqueue(i, 0, 1, 0);
  for (std::uint64_t i = 3; i < 6; ++i) s->enqueue(i, 1, 1, 0);
  EXPECT_EQ(drain(*s),
            (std::vector<sim::TenantId>{0, 1, 0, 1, 0, 1}));
}

TEST(SchedDrr, QuantumServesBursts) {
  SchedConfig config;
  config.policy = Policy::kDrr;
  auto s = make_scheduler(config);
  for (std::uint64_t i = 0; i < 4; ++i) s->enqueue(i, 0, 4, 0);
  for (std::uint64_t i = 4; i < 8; ++i) s->enqueue(i, 1, 4, 0);
  // Eight pages of credit per visit, four-page requests: each tenant
  // serves a burst of two before the cursor moves on.
  EXPECT_EQ(drain(*s),
            (std::vector<sim::TenantId>{0, 0, 1, 1, 0, 0, 1, 1}));
}

TEST(SchedDrr, EmptiedQueueForfeitsCredit) {
  SchedConfig config;
  config.policy = Policy::kDrr;
  auto s = make_scheduler(config);
  s->enqueue(0, 0, 1, 0);
  s->enqueue(1, 1, 1, 0);
  Grant g;
  ASSERT_TRUE(s->pick(g));
  EXPECT_EQ(g.tenant, 0u);
  // Tenant 0's queue emptied; its 7 residual pages of credit must not
  // carry over to a later burst.
  s->enqueue(2, 0, 8, 0);
  ASSERT_TRUE(s->pick(g));
  EXPECT_EQ(g.tenant, 1u);  // cursor moved past the emptied queue
  ASSERT_TRUE(s->pick(g));
  EXPECT_EQ(g.tenant, 0u);
  EXPECT_FALSE(s->pick(g));
}

TEST(SchedWeightedShare, ArgminServedOverWeight) {
  SchedConfig config;
  config.policy = Policy::kWeightedShare;
  config.shares.push_back({.tenant = 0, .weight = 3});
  config.shares.push_back({.tenant = 1, .weight = 1});
  auto s = make_scheduler(config);
  for (std::uint64_t i = 0; i < 6; ++i) s->enqueue(i, 0, 1, 0);
  for (std::uint64_t i = 6; i < 8; ++i) s->enqueue(i, 1, 1, 0);
  EXPECT_EQ(drain(*s),
            (std::vector<sim::TenantId>{0, 1, 0, 0, 0, 1, 0, 0}));
}

TEST(SchedClone, IsDeepAndIndependent) {
  SchedConfig config;
  config.policy = Policy::kWfq;
  config.max_outstanding_requests = 4;
  auto s = make_scheduler(config);
  for (std::uint64_t i = 0; i < 6; ++i) {
    s->enqueue(i, static_cast<sim::TenantId>(i % 2), 1, 10 * i);
  }
  Scheduler copy = *s;
  // Draining the original must not disturb the copy.
  const auto original_order = drain(*s);
  EXPECT_EQ(copy.pending(), 6u);
  EXPECT_EQ(drain(copy),
            std::vector<sim::TenantId>(original_order.begin(),
                                       original_order.begin() + 4));
}

TEST(SchedSnapshot, RoundTripResumesIdentically) {
  for (const Policy p : {Policy::kFifo, Policy::kWfq, Policy::kDrr,
                         Policy::kWeightedShare}) {
    SchedConfig config;
    config.policy = p;
    config.max_outstanding_requests = 3;
    config.shares.push_back({.tenant = 0, .weight = 2});
    auto a = make_scheduler(config);
    for (std::uint64_t i = 0; i < 8; ++i) {
      a->enqueue(i, static_cast<sim::TenantId>(i % 3),
                 static_cast<std::uint32_t>(1 + i % 2), i);
    }
    Grant g;
    ASSERT_TRUE(a->pick(g));
    ASSERT_TRUE(a->pick(g));
    a->on_complete(g.tenant);

    snapshot::StateWriter w;
    a->save_state(w);
    auto b = make_scheduler(config);
    snapshot::StateReader r(w.buffer());
    b->load_state(r);
    EXPECT_TRUE(r.exhausted());
    b->check_invariants();
    EXPECT_EQ(b->pending(), a->pending());
    EXPECT_EQ(b->outstanding(), a->outstanding());
    EXPECT_EQ(b->decisions(), a->decisions());
    EXPECT_EQ(b->pending_requests(), a->pending_requests());

    // Both replicas must grant the same sequence from here on.
    Grant ga, gb;
    while (true) {
      const bool more_a = a->pick(ga);
      const bool more_b = b->pick(gb);
      ASSERT_EQ(more_a, more_b) << policy_name(p);
      if (!more_a) break;
      EXPECT_EQ(ga.request_index, gb.request_index) << policy_name(p);
      EXPECT_EQ(ga.decision_seq, gb.decision_seq);
      a->on_complete(ga.tenant);
      b->on_complete(gb.tenant);
    }
  }
}

TEST(SchedSnapshot, LoadRejectsPolicyMismatch) {
  SchedConfig wfq;
  wfq.policy = Policy::kWfq;
  auto a = make_scheduler(wfq);
  a->enqueue(0, 0, 1, 0);
  snapshot::StateWriter w;
  a->save_state(w);

  SchedConfig drr;
  drr.policy = Policy::kDrr;
  auto b = make_scheduler(drr);
  snapshot::StateReader r(w.buffer());
  EXPECT_THROW(b->load_state(r), snapshot::SnapshotError);
}

TEST(SchedClear, DropsQueuesKeepsDecisionCount) {
  SchedConfig config;
  config.policy = Policy::kDrr;
  config.max_outstanding_requests = 1;
  auto s = make_scheduler(config);
  s->enqueue(0, 0, 1, 0);
  s->enqueue(1, 1, 1, 0);
  Grant g;
  ASSERT_TRUE(s->pick(g));
  s->clear();
  EXPECT_EQ(s->pending(), 0u);
  EXPECT_EQ(s->outstanding(), 0u);
  EXPECT_EQ(s->decisions(), 1u);
  s->check_invariants();
}

TEST(Fairness, JainIndexBounds) {
  EXPECT_EQ(jain_index({}), 0.0);
  const double equal[] = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(jain_index(equal), 1.0);
  const double one_hot[] = {1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(one_hot), 0.25);
  const double skewed[] = {1.0, 3.0};
  EXPECT_NEAR(jain_index(skewed), 16.0 / 20.0, 1e-12);
}

}  // namespace
}  // namespace ssdk::sched
