// Golden determinism tests for device checkpoints and fork().
//
// The protocol (DESIGN.md §12): run a recipe uninterrupted with telemetry
// on; run it again but checkpoint at the midpoint, restore from the bytes,
// and finish on the restored device. The concatenated trace of the
// interrupted run must be event-for-event identical to the uninterrupted
// one (telemetry::first_divergence == kNoDivergence) — including with
// fault injection enabled, which exercises the serialized RNG stream.
// fork() gets the same treatment: two forks of one prefix must replay the
// suffix identically to each other and to a restore-from-bytes.
#include "snapshot/device_snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../ssd/golden_schedule_recipe.hpp"
#include "core/runner.hpp"
#include "snapshot/archive.hpp"
#include "telemetry/binary_trace.hpp"
#include "telemetry/tracer.hpp"
#include "trace/catalog.hpp"

namespace ssdk {
namespace {

using testing::GoldenRecipe;

std::vector<telemetry::TraceEvent> concat(const telemetry::Tracer& a,
                                          const telemetry::Tracer& b) {
  std::vector<telemetry::TraceEvent> events = a.events();
  const auto tail = b.events();
  events.insert(events.end(), tail.begin(), tail.end());
  return events;
}

/// Recipes plus a fault-injecting variant of the GC-churn scenario: read
/// retries, program/erase failures and retirement all draw from the fault
/// RNG, so a snapshot that mishandled its stream would diverge here.
std::vector<GoldenRecipe> snapshot_recipes() {
  auto recipes = testing::all_golden_recipes();
  GoldenRecipe faulty = testing::golden_gc_churn();
  faulty.name = "gc_churn_faulty";
  faulty.config.ssd.faults.read_ber = 2e-3;
  faulty.config.ssd.faults.program_fail = 1e-3;
  faulty.config.ssd.faults.erase_fail = 2e-3;
  faulty.config.ssd.faults.max_pe_cycles = 48;
  recipes.push_back(std::move(faulty));
  return recipes;
}

class DeviceSnapshotTest : public ::testing::TestWithParam<GoldenRecipe> {
 protected:
  /// Uninterrupted reference replay.
  std::vector<telemetry::TraceEvent> reference_events() {
    telemetry::Tracer tracer;
    const core::RunResult run = testing::replay_golden(GetParam(), tracer);
    EXPECT_EQ(tracer.dropped(), 0u);
    reference_run_ = run;
    return tracer.events();
  }

  /// A device run up to (not including) arrival `cut`, tracing into
  /// `tracer`.
  std::unique_ptr<ssd::Ssd> prefix_device(std::uint64_t cut,
                                          telemetry::Tracer& tracer) {
    const GoldenRecipe& recipe = GetParam();
    const auto features = core::features_of(recipe.requests);
    profiles_ = features.profiles(recipe.tenants);
    core::RunConfig config = recipe.config;
    config.tracer = &tracer;
    auto device = core::make_run_device(recipe.requests, core::Strategy{},
                                        profiles_, config);
    device->run_until_arrival(cut);
    return device;
  }

  core::RunResult reference_run_;
  std::vector<core::TenantProfile> profiles_;
};

TEST_P(DeviceSnapshotTest, RestoreReplaysBitIdentically) {
  const GoldenRecipe& recipe = GetParam();
  const auto reference = reference_events();
  const std::uint64_t cut = recipe.requests.size() / 2;

  telemetry::Tracer before;
  auto device = prefix_device(cut, before);
  const std::vector<char> bytes = snapshot::save_device(*device);
  device.reset();  // the original is gone; only the bytes remain

  auto restored = snapshot::load_device(bytes);
  telemetry::Tracer after;
  restored->set_tracer(&after);
  restored->run_to_completion();

  const auto events = concat(before, after);
  const std::size_t divergence =
      telemetry::first_divergence(events, reference);
  EXPECT_EQ(divergence, telemetry::kNoDivergence)
      << recipe.name << ": interrupted replay diverges at event "
      << divergence << " (" << events.size() << " vs " << reference.size()
      << " events)";

  // The restored run's metrics must also match end-state for end-state.
  const core::RunResult resumed = core::summarize(*restored);
  EXPECT_EQ(resumed.counters.page_ops, reference_run_.counters.page_ops);
  EXPECT_EQ(resumed.avg_read_us, reference_run_.avg_read_us);
  EXPECT_EQ(resumed.avg_write_us, reference_run_.avg_write_us);
  EXPECT_EQ(resumed.p99_read_us, reference_run_.p99_read_us);
}

TEST_P(DeviceSnapshotTest, ForkMatchesRestoreAndSibling) {
  const GoldenRecipe& recipe = GetParam();
  const std::uint64_t cut = recipe.requests.size() / 2;

  telemetry::Tracer before;
  auto device = prefix_device(cut, before);
  const std::vector<char> bytes = snapshot::save_device(*device);

  auto fork_a = device->fork();
  auto fork_b = device->fork();
  auto restored = snapshot::load_device(bytes);

  telemetry::Tracer trace_a, trace_b, trace_r;
  fork_a->set_tracer(&trace_a);
  fork_b->set_tracer(&trace_b);
  restored->set_tracer(&trace_r);
  fork_a->run_to_completion();
  fork_b->run_to_completion();
  restored->run_to_completion();

  EXPECT_EQ(telemetry::first_divergence(trace_a.events(), trace_b.events()),
            telemetry::kNoDivergence)
      << recipe.name << ": sibling forks diverged";
  EXPECT_EQ(telemetry::first_divergence(trace_a.events(), trace_r.events()),
            telemetry::kNoDivergence)
      << recipe.name << ": fork and restored-from-bytes diverged";

  // The parent is untouched by its forks and can still finish the run.
  device->run_to_completion();
  EXPECT_EQ(core::summarize(*device).counters.page_ops,
            core::summarize(*fork_a).counters.page_ops);
}

TEST_P(DeviceSnapshotTest, SaveLoadSaveIsByteIdentical) {
  const std::uint64_t cut = GetParam().requests.size() / 2;
  telemetry::Tracer tracer;
  auto device = prefix_device(cut, tracer);
  const std::vector<char> first = snapshot::save_device(*device);
  const std::vector<char> second =
      snapshot::save_device(*snapshot::load_device(first));
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    AllRecipes, DeviceSnapshotTest, ::testing::ValuesIn(snapshot_recipes()),
    [](const ::testing::TestParamInfo<GoldenRecipe>& param) {
      return param.param.name;
    });

// Regression: the OPTS section used to drop the power model entirely, so
// a crash campaign resumed from a checkpoint silently lost its scheduled
// power cut (found by tools/lint/snapshot_coverage_lint.py).
TEST(DeviceSnapshot, PowerModelSurvivesRoundTrip) {
  auto recipe = testing::golden_mix1_default();
  recipe.config.ssd.power.enabled = true;
  // One scheduled cut only — the model rejects arming both kinds. The cut
  // sits past the checkpoint point, so it is still pending in the bytes.
  recipe.config.ssd.power.cut_at_arrival = recipe.requests.size() - 1;
  recipe.config.ssd.power.auto_recover = true;

  const auto features = core::features_of(recipe.requests);
  const auto profiles = features.profiles(recipe.tenants);
  auto device = core::make_run_device(recipe.requests, core::Strategy{},
                                      profiles, recipe.config);
  device->run_until_arrival(recipe.requests.size() / 2);

  auto restored = snapshot::load_device(snapshot::save_device(*device));
  const auto& power = restored->options().power;
  EXPECT_TRUE(power.enabled);
  EXPECT_EQ(power.cut_at_time, 0u);
  EXPECT_EQ(power.cut_at_arrival, recipe.requests.size() - 1);
  EXPECT_TRUE(power.auto_recover);
}

// Regression: the fair scheduler's loader sized each tenant record at 44
// bytes in its plausibility check, but a record with an empty queue is 36
// (u32 id, three u64 counters, u64 queue length). A drained WFQ device,
// whose SCHD section holds only such records, failed to load with
// "implausible element count".
TEST(DeviceSnapshot, DrainedWfqDeviceRoundTrips) {
  ssd::SsdOptions options;
  options.sched.policy = sched::Policy::kWfq;
  options.sched.max_outstanding_requests = 8;
  options.sched.shares.push_back({.tenant = 0, .weight = 4});
  options.sched.shares.push_back({.tenant = 1, .weight = 1});
  const auto first_batch = trace::build_mix(1, 0.1, 400);
  ssd::Ssd device(options);
  device.submit(first_batch);
  device.run_to_completion();
  ASSERT_EQ(device.scheduler().pending(), 0u);

  const std::vector<char> first = snapshot::save_device(device);
  auto restored = snapshot::load_device(first);
  EXPECT_EQ(snapshot::save_device(*restored), first);

  // The restored device continues exactly like a fork of the original.
  auto forked = device.fork();
  std::vector<sim::IoRequest> second_batch = trace::build_mix(2, 0.1, 400);
  for (sim::IoRequest& r : second_batch) {
    r.id += first_batch.size();
    r.arrival += device.now();
  }
  telemetry::Tracer trace_f, trace_r;
  forked->set_tracer(&trace_f);
  restored->set_tracer(&trace_r);
  forked->submit(second_batch);
  restored->submit(second_batch);
  forked->run_to_completion();
  restored->run_to_completion();
  EXPECT_EQ(telemetry::first_divergence(trace_f.events(), trace_r.events()),
            telemetry::kNoDivergence);
  EXPECT_EQ(snapshot::save_device(*forked), snapshot::save_device(*restored));
}

// Regression: the FTL's const policy queries used to install a default
// policy for the tenant they were asked about, so merely reading a
// device changed its snapshot (a fresh default device grew by 100 bytes
// after one tenant_channels(3)). Concurrent fork trials read devices
// through const paths and rely on such reads never writing.
TEST(DeviceSnapshot, ConstFtlQueriesLeaveSnapshotUnchanged) {
  ssd::Ssd device{ssd::SsdOptions{}};
  const std::vector<char> before = snapshot::save_device(device);
  const ftl::Ftl& view = device.ftl();
  EXPECT_EQ(view.tenant_channels(3).size(),
            device.options().geometry.channels);
  EXPECT_EQ(view.tenant_alloc_mode(7), ftl::AllocMode::kStatic);
  EXPECT_EQ(snapshot::save_device(device), before);
}

TEST(DeviceSnapshotFile, RoundTripAndCorruptionDetection) {
  const auto recipe = testing::golden_mix1_default();
  const auto features = core::features_of(recipe.requests);
  const auto profiles = features.profiles(recipe.tenants);
  auto device = core::make_run_device(recipe.requests, core::Strategy{},
                                      profiles, recipe.config);
  device->run_until_arrival(recipe.requests.size() / 2);

  const std::string path =
      ::testing::TempDir() + "/device_snapshot_test.ssdksnp";
  snapshot::save_device_file(path, *device);
  auto restored = snapshot::load_device_file(path);
  EXPECT_EQ(snapshot::save_device(*restored), snapshot::save_device(*device));

  // Truncate the file: loading must fail with a descriptive error.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_THROW(snapshot::load_device_file(path), snapshot::SnapshotError);
}

}  // namespace
}  // namespace ssdk
