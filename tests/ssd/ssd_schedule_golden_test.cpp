// Golden bit-identical schedule check for the hot-path optimizations.
//
// The reference traces under tests/data/ were recorded on the simulator
// *before* the flat-container/devirtualization work landed. Replaying the
// same recipes on the current build must reproduce every span — begin
// time, end time, kind, resource, request id — event for event. A
// divergence here means an "optimization" changed the schedule, which is
// a correctness bug, not a perf trade-off.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "golden_schedule_recipe.hpp"
#include "telemetry/binary_trace.hpp"

namespace ssdk {
namespace {

std::string reference_path(const std::string& name) {
  return std::string(SSDK_TEST_DATA_DIR) + "/" + name + ".ssdktrc";
}

class GoldenScheduleTest
    : public ::testing::TestWithParam<testing::GoldenRecipe> {};

TEST_P(GoldenScheduleTest, BitIdenticalToPreOptimizationTrace) {
  const testing::GoldenRecipe& recipe = GetParam();
  const auto reference =
      telemetry::read_binary_trace_file(reference_path(recipe.name));
  ASSERT_EQ(reference.dropped, 0u)
      << recipe.name << ": reference trace lost events when recorded; "
      << "regenerate it with a larger tracer ring";
  ASSERT_FALSE(reference.events.empty()) << recipe.name;

  telemetry::Tracer tracer;
  const core::RunResult run = testing::replay_golden(recipe, tracer);
  EXPECT_FALSE(run.device_full) << recipe.name << ": " << run.abort_reason;
  ASSERT_EQ(tracer.dropped(), 0u) << recipe.name;

  const auto events = tracer.events();
  const std::size_t divergence =
      telemetry::first_divergence(events, reference.events);
  ASSERT_EQ(divergence, telemetry::kNoDivergence)
      << recipe.name << ": schedule diverges from the pre-optimization "
      << "reference at event " << divergence << " (replayed "
      << events.size() << " events, reference has "
      << reference.events.size() << ")";
}

// The scheduler subsystem's neutrality claim, checked against the same
// committed references: an *explicit* FIFO config with an unlimited
// admission window — even with per-tenant weights and SLO targets
// attached — must leave every recorded span untouched. Weights only
// matter to the fair policies and SLO targets only feed the metrics
// layer, so the dispatch schedule cannot move.
TEST_P(GoldenScheduleTest, ExplicitFifoSchedConfigIsScheduleNeutral) {
  testing::GoldenRecipe recipe = GetParam();
  recipe.config.ssd.sched.policy = sched::Policy::kFifo;
  recipe.config.ssd.sched.max_outstanding_requests = 0;
  recipe.config.ssd.sched.shares.push_back(
      {.tenant = 0, .weight = 4, .slo_target_us = 100});
  recipe.config.ssd.sched.shares.push_back({.tenant = 1, .weight = 1});
  ASSERT_TRUE(recipe.config.ssd.sched.schedule_neutral());

  const auto reference =
      telemetry::read_binary_trace_file(reference_path(recipe.name));
  telemetry::Tracer tracer;
  const core::RunResult run = testing::replay_golden(recipe, tracer);
  EXPECT_FALSE(run.device_full) << recipe.name << ": " << run.abort_reason;
  ASSERT_EQ(tracer.dropped(), 0u) << recipe.name;

  const std::size_t divergence =
      telemetry::first_divergence(tracer.events(), reference.events);
  ASSERT_EQ(divergence, telemetry::kNoDivergence)
      << recipe.name << ": explicit FIFO scheduler config changed the "
      << "schedule at event " << divergence;
}

// Scenario E exists to pin migration: its GC victims still hold valid
// pages when picked, so its reference trace holds GC reads and programs,
// which none of the other recipes produces.
TEST(GoldenRecipes, GcMigrateMovesValidPages) {
  telemetry::Tracer tracer;
  const core::RunResult run =
      testing::replay_golden(testing::golden_gc_migrate(), tracer);
  EXPECT_FALSE(run.device_full) << run.abort_reason;
  EXPECT_GT(run.counters.gc_migrations, 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRecipes, GoldenScheduleTest,
    ::testing::ValuesIn(testing::all_golden_recipes()),
    [](const ::testing::TestParamInfo<testing::GoldenRecipe>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace ssdk
