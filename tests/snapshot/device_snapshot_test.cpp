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

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../ssd/golden_schedule_recipe.hpp"
#include "core/label_gen.hpp"
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

// --- BLKM: block state of opened blocks only --------------------------------

/// pipeline's generator settings: 0.35 s synthesize_mix workloads.
std::vector<sim::IoRequest> pipeline_workload() {
  core::DatasetGenConfig gen;
  gen.workload_duration_s = 0.35;
  return core::synthesize_mix(gen, 0);
}

/// A device built for `requests` under `config` and run up to arrival `cut`.
std::unique_ptr<ssd::Ssd> device_at(const std::vector<sim::IoRequest>& requests,
                                    std::uint32_t tenants,
                                    core::RunConfig config, std::uint64_t cut) {
  const auto profiles = core::features_of(requests).profiles(tenants);
  auto device = core::make_run_device(requests, core::Strategy{}, profiles,
                                      config);
  device->run_until_arrival(cut);
  return device;
}

std::uint64_t read_u64_at(const std::vector<char>& buf, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof(v));
  return v;
}
std::uint32_t read_u32_at(const std::vector<char>& buf, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof(v));
  return v;
}
void write_u64_at(std::vector<char>& buf, std::size_t pos, std::uint64_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof(v));
}
void write_u32_at(std::vector<char>& buf, std::size_t pos, std::uint32_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof(v));
}

/// Byte offsets of the v8 BLKM fields in a device payload (layout in
/// src/ftl/block_manager.cpp, above save_state).
struct BlkmLayout {
  struct Record {
    std::size_t at;  ///< u32 write_ptr, u64 erases, u8 state at +12, ...
    std::uint32_t write_ptr;
    std::uint32_t valid;  ///< set validity bits
    std::uint8_t state;
    std::size_t state_at() const { return at + 12; }
    std::size_t words_at() const { return at + 15; }
  };
  struct Plane {
    std::size_t cursor_at;
    std::vector<Record> records;
  };
  std::size_t planes_at = 0;  ///< u64 plane count
  std::vector<Plane> planes;
  std::size_t end = 0;  ///< the first byte past the section
};

BlkmLayout parse_blkm(const std::vector<char>& payload,
                      std::uint32_t pages_per_block) {
  const std::size_t words = (pages_per_block + 63) / 64;
  BlkmLayout layout;
  std::size_t pos = 0;
  while (std::memcmp(payload.data() + pos, "BLKM", 4) != 0) ++pos;
  layout.planes_at = pos + 4;
  const std::uint64_t nplanes = read_u64_at(payload, layout.planes_at);
  pos += 12;
  for (std::uint64_t p = 0; p < nplanes; ++p) {
    BlkmLayout::Plane plane;
    plane.cursor_at = pos;
    const std::uint64_t cursor = read_u64_at(payload, pos);
    pos += 8;
    for (std::uint64_t b = 0; b < cursor; ++b) {
      BlkmLayout::Record rec{pos, read_u32_at(payload, pos), 0,
                             static_cast<std::uint8_t>(payload[pos + 12])};
      for (std::size_t w = 0; w < words; ++w) {
        rec.valid += static_cast<std::uint32_t>(
            std::popcount(read_u64_at(payload, rec.words_at() + 8 * w)));
      }
      plane.records.push_back(rec);
      pos += 15 + 8 * words + std::size_t{8} * rec.valid;
    }
    layout.planes.push_back(std::move(plane));
  }
  layout.end = pos;
  return layout;
}

std::vector<char> payload_of(const ssd::Ssd& device) {
  const std::vector<char> bytes = snapshot::save_device(device);
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  return snapshot::read_container(in, snapshot::PayloadKind::kDevice);
}

constexpr std::uint64_t kAnyOffset = ~std::uint64_t{0};

/// Apply `patch` to a copy of `payload`, re-seal it and require
/// load_device to refuse it with a SnapshotError whose message names
/// `expected` and, unless `offset` is kAnyOffset, whose offset is
/// `offset` (a position in the payload).
template <typename Patch>
void expect_rejected(std::vector<char> payload, Patch&& patch,
                     const char* expected,
                     std::uint64_t offset = kAnyOffset) {
  patch(payload);
  std::ostringstream out;
  snapshot::write_container(out, snapshot::PayloadKind::kDevice, payload);
  const std::string sealed = out.str();
  try {
    snapshot::load_device(std::span<const char>(sealed.data(), sealed.size()));
    ADD_FAILURE() << "accepted a payload whose " << expected << " was mutated";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
    if (offset != kAnyOffset) {
      EXPECT_EQ(e.offset(), offset) << e.what();
      EXPECT_NE(std::string(e.what()).find(std::to_string(offset)),
                std::string::npos)
          << e.what();
    }
  }
}

// Regression: the BLKM loader used to cast the state byte and accept any
// open block, write pointer or free-list id; a re-sealed payload with
// plane 0's open block at 2^20 loaded, and the next write to that plane
// indexed out of bounds. Format v8 writes no open block, valid count, free
// list or retired count: the loader derives them from the records, whose
// every field is checked before use.
TEST(DeviceSnapshot, RejectsResealedBlkmMutations) {
  const auto requests = pipeline_workload();
  const core::RunConfig config;
  const std::uint32_t ppb = config.ssd.geometry.pages_per_block;
  const auto device = device_at(requests, 4, config, requests.size() / 2);
  const std::vector<char> payload = payload_of(*device);
  ASSERT_NO_THROW(snapshot::load_device(snapshot::save_device(*device)));
  const BlkmLayout layout = parse_blkm(payload, ppb);
  const BlkmLayout::Plane& plane0 = layout.planes.at(0);
  ASSERT_FALSE(plane0.records.empty());
  const BlkmLayout::Record& first = plane0.records.front();

  expect_rejected(
      payload,
      [&](auto& b) {
        write_u64_at(b, layout.planes_at, layout.planes.size() + 1);
      },
      "plane count mismatch", layout.planes_at);
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u64_at(b, plane0.cursor_at,
                     config.ssd.geometry.blocks_per_plane + 1);
      },
      "exceeds blocks_per_plane", plane0.cursor_at);
  expect_rejected(
      payload, [&](auto& b) { b[first.state_at()] = 7; }, "invalid state",
      first.state_at());
  expect_rejected(
      payload, [&](auto& b) { write_u32_at(b, first.at, ppb + 1); },
      "exceeds pages_per_block", first.at);
  expect_rejected(
      payload,
      [&](auto& b) {
        ASSERT_GT(first.write_ptr, 0u);
        b[first.state_at()] = 0;  // Free, yet written
      },
      "disagrees with write pointer", first.state_at());

  // An owner on an unprogrammed page: move one valid bit of an open block
  // to the page at its write pointer (the owner count is unchanged).
  const BlkmLayout::Record* open = nullptr;
  for (const auto& plane : layout.planes) {
    for (const auto& rec : plane.records) {
      if (rec.state == 1 && rec.valid > 0) open = &rec;
    }
  }
  ASSERT_NE(open, nullptr) << "no open block with a valid page";
  ASSERT_LT(open->write_ptr, 64u);
  expect_rejected(
      payload,
      [&](auto& b) {
        std::uint64_t word = read_u64_at(b, open->words_at());
        ASSERT_NE(word, 0u);
        word &= word - 1;  // drop the lowest valid page
        word |= std::uint64_t{1} << open->write_ptr;
        write_u64_at(b, open->words_at(), word);
      },
      "at or above its write pointer", open->words_at());

  // A second Open block in a plane: GC churn on a small device leaves
  // erased (Free) records beside each plane's open block, which a
  // label-sweep prefix never has. Reopening a Free record is refused at
  // the state byte of whichever of the two comes second.
  const testing::GoldenRecipe recipe = testing::golden_gc_churn();
  const auto churned = device_at(recipe.requests, recipe.tenants,
                                 recipe.config, recipe.requests.size() / 2);
  const std::vector<char> churned_payload = payload_of(*churned);
  const BlkmLayout churned_layout = parse_blkm(
      churned_payload, recipe.config.ssd.geometry.pages_per_block);
  const BlkmLayout::Record* free_rec = nullptr;
  const BlkmLayout::Record* open_rec = nullptr;
  for (const auto& plane : churned_layout.planes) {
    const BlkmLayout::Record* f = nullptr;
    const BlkmLayout::Record* o = nullptr;
    for (const auto& rec : plane.records) {
      if (rec.state == 0 && f == nullptr) f = &rec;
      if (rec.state == 1) o = &rec;
    }
    if (f != nullptr && o != nullptr) {
      free_rec = f;
      open_rec = o;
    }
  }
  ASSERT_NE(free_rec, nullptr) << "no plane holds a Free and an Open block";
  expect_rejected(
      churned_payload, [&](auto& b) { b[free_rec->state_at()] = 1; },
      "second Open block",
      std::max(free_rec->state_at(), open_rec->state_at()));
}

// After a load, each plane's open block, free list and every block's
// valid count are derived from the records: they must answer every
// query the saved device answered.
TEST(DeviceSnapshot, LoadDerivesOpenBlocksFreeListsAndValidCounts) {
  const testing::GoldenRecipe recipe = testing::golden_gc_churn();
  const auto device = device_at(recipe.requests, recipe.tenants,
                                recipe.config, recipe.requests.size() / 2);
  const auto restored = snapshot::load_device(snapshot::save_device(*device));
  const ftl::BlockManager& saved = device->ftl().blocks();
  const ftl::BlockManager& loaded = restored->ftl().blocks();
  const sim::Geometry& g = recipe.config.ssd.geometry;
  std::uint64_t erased_free = 0;
  for (std::uint64_t plane = 0; plane < g.total_planes(); ++plane) {
    EXPECT_EQ(loaded.free_blocks(plane), saved.free_blocks(plane));
    EXPECT_EQ(loaded.free_pages(plane), saved.free_pages(plane));
    EXPECT_EQ(loaded.select_victim(plane), saved.select_victim(plane));
    for (std::uint32_t b = 0; b < g.blocks_per_plane; ++b) {
      EXPECT_EQ(loaded.valid_count(plane, b), saved.valid_count(plane, b));
      if (saved.block_state(plane, b) == ftl::BlockState::kFree &&
          saved.erase_count(plane, b) > 0) {
        ++erased_free;
      }
    }
  }
  EXPECT_GT(erased_free, 0u) << "no erased block on a free list";
  EXPECT_EQ(loaded.retired_blocks(), saved.retired_blocks());
  EXPECT_NO_THROW(loaded.check_invariants());
}

// --- FTL_: L2P tables and tenant policies -----------------------------------

/// Byte offsets of the v8 FTL_ fields on either side of BLKM: the L2P
/// tables before it and the tenant policies after it (layouts in
/// src/ftl/mapping.cpp, above save_state, and Ftl::save_state).
struct FtlLayout {
  struct Table {
    std::size_t span_at;  ///< u64 span, then span u32 entries
    std::uint64_t span;
    std::size_t entries_at;
  };
  struct Policy {
    std::size_t ids_at;  ///< first u32 channel id
    std::uint64_t ids;
    std::size_t mode_at;  ///< u8 alloc mode, then u64 rr counter
  };
  std::size_t tenants_at = 0;  ///< u64 table count
  std::vector<Table> tables;
  std::vector<Policy> policies;
  std::size_t oob_at = 0;  ///< the OOB_ tag that follows the policies
};

FtlLayout parse_ftl(const std::vector<char>& payload,
                    std::uint32_t pages_per_block) {
  FtlLayout layout;
  std::size_t pos = 0;
  while (std::memcmp(payload.data() + pos, "FTL_L2PM", 8) != 0) ++pos;
  layout.tenants_at = pos + 8;
  const std::uint64_t tenants = read_u64_at(payload, layout.tenants_at);
  pos += 16;
  for (std::uint64_t t = 0; t < tenants; ++t) {
    const FtlLayout::Table table{pos, read_u64_at(payload, pos), pos + 8};
    layout.tables.push_back(table);
    pos = table.entries_at + 4 * table.span;
  }
  pos = parse_blkm(payload, pages_per_block).end;
  const std::uint64_t policies = read_u64_at(payload, pos);
  pos += 8;
  for (std::uint64_t t = 0; t < policies; ++t) {
    FtlLayout::Policy policy{pos + 8, read_u64_at(payload, pos), 0};
    policy.mode_at = policy.ids_at + 4 * policy.ids;
    layout.policies.push_back(policy);
    pos = policy.mode_at + 1 + 8;
  }
  layout.oob_at = pos;
  return layout;
}

// Regression: the FTL_ loader took L2P entries, spans, policy channel ids
// and mode bytes as given. Release loads never audit, so each mutation
// below loaded, and the device later indexed out of bounds or dispatched
// on an invalid mode. Every field is now checked before use, and the
// error names its byte offset.
TEST(DeviceSnapshot, RejectsResealedFtlMutations) {
  const auto requests = pipeline_workload();
  const core::RunConfig config;
  const sim::Geometry& geometry = config.ssd.geometry;
  const auto device = device_at(requests, 4, config, requests.size() / 2);
  const std::vector<char> payload = payload_of(*device);
  ASSERT_NO_THROW(snapshot::load_device(snapshot::save_device(*device)));
  const FtlLayout layout = parse_ftl(payload, geometry.pages_per_block);
  ASSERT_FALSE(layout.tables.empty());
  const FtlLayout::Table& table = layout.tables.front();
  ASSERT_GT(table.span, 0u);
  std::size_t mapped_at = 0;  // first mapped entry of tenant 0
  for (std::uint64_t i = 0; i < table.span && mapped_at == 0; ++i) {
    const std::size_t at = table.entries_at + 4 * i;
    if (read_u32_at(payload, at) != sim::kInvalidPpn32) mapped_at = at;
  }
  ASSERT_NE(mapped_at, 0u) << "tenant 0 has no mapped page";

  // More tables than the dense-id bound.
  expect_rejected(
      payload, [&](auto& b) { write_u64_at(b, layout.tenants_at, 1025); },
      "exceeds limit", layout.tenants_at);
  // A mapped entry moved past the last page.
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u32_at(b, mapped_at,
                     static_cast<std::uint32_t>(geometry.total_pages()));
      },
      "maps to ppn", mapped_at);
  // One more unmapped entry: a span that is not a whole number of steps.
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u64_at(b, table.span_at, table.span + 1);
        const char unmapped[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
        const std::size_t end = table.entries_at + 4 * table.span;
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(end), unmapped,
                 unmapped + 4);
      },
      "not a whole number", table.span_at);

  ASSERT_FALSE(layout.policies.empty());
  const FtlLayout::Policy& policy = layout.policies.front();
  ASSERT_GE(policy.ids, 2u);
  const std::size_t second_id = policy.ids_at + 4;
  expect_rejected(
      payload,
      [&](auto& b) { write_u32_at(b, second_id, geometry.channels); },
      " channels", second_id);
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u32_at(b, second_id, read_u32_at(b, policy.ids_at));
      },
      "twice", second_id);
  expect_rejected(
      payload, [&](auto& b) { b[policy.mode_at] = 2; }, "alloc mode",
      policy.mode_at);
}

// Regression: the OOB_ loader cast each state byte unchecked and took
// owners, seqs and unknown-block flags as given, and Release loads never
// audit. Each mutation below loaded: a state byte of 7 read back as 7, and
// an erased page re-marked as data with no owner made the next recovery
// scan throw std::invalid_argument on tenant id 2^24 - 1. The loader now
// enforces the rules of OobStore::check_invariants, each at its field's
// offset.
TEST(DeviceSnapshot, RejectsResealedOobMutations) {
  ssd::SsdOptions powered;
  powered.geometry = sim::Geometry::tiny();
  powered.power.enabled = true;
  std::vector<sim::IoRequest> writes;
  for (std::uint64_t i = 0; i < 64; ++i) {
    sim::IoRequest r;
    r.id = i;
    r.type = sim::OpType::kWrite;
    r.lpn = i % 24;
    r.arrival = 100 * kMicrosecond * i;
    writes.push_back(r);
  }
  ssd::Ssd device(powered);
  device.submit(writes);
  device.run_until_arrival(32);
  const std::vector<char> payload = payload_of(device);
  ASSERT_NO_THROW(snapshot::load_device(snapshot::save_device(device)));

  const ftl::OobStore& oob = device.ftl().oob();
  const std::uint64_t pages = powered.geometry.total_pages();
  sim::Ppn data = sim::kInvalidPpn, erased = sim::kInvalidPpn;
  for (sim::Ppn p = 0; p < pages; ++p) {
    if (oob.state(p) == ftl::OobState::kData && data == sim::kInvalidPpn) {
      data = p;
    }
    if (oob.state(p) == ftl::OobState::kErased && erased == sim::kInvalidPpn) {
      erased = p;
    }
  }
  ASSERT_NE(data, sim::kInvalidPpn) << "no programmed page";
  ASSERT_NE(erased, sim::kInvalidPpn) << "no erased page";
  // OOB_: tag, bool enabled, u64 next seq, then the owner and seq arrays
  // (u64 length, u64 per page), the state bytes (u64 length, u8 per page)
  // and the unknown-block flags (u64 length, u8 per block).
  const std::size_t at =
      parse_ftl(payload, powered.geometry.pages_per_block).oob_at;
  ASSERT_EQ(read_u64_at(payload, at + 5), oob.next_seq());
  const std::size_t owners = at + 5 + 8 + 8;
  const std::size_t seqs = owners + 8 * pages + 8;
  const std::size_t states = seqs + 8 * pages + 8;
  const std::size_t flags = states + pages + 8;

  expect_rejected(
      payload, [&](auto& b) { b[states] = 7; }, "invalid state 7", states);
  expect_rejected(
      payload, [&](auto& b) { b[states + erased] = 1; },
      "holds data but no owner", owners + 8 * erased);
  expect_rejected(
      payload, [&](auto& b) { write_u64_at(b, owners + 8 * erased, 0); },
      "has an owner but no data", owners + 8 * erased);
  expect_rejected(
      payload,
      [&](auto& b) { write_u64_at(b, seqs + 8 * data, oob.next_seq()); },
      "outside (0, ", seqs + 8 * data);
  expect_rejected(
      payload, [&](auto& b) { write_u64_at(b, seqs + 8 * erased, 5); },
      "but no data", seqs + 8 * erased);
  expect_rejected(
      payload, [&](auto& b) { b[flags] = 2; }, "not 0 or 1", flags);
}

// --- device sections: CHNL, UNIT, REQS, OPSL, GCJB, PWRS --------------------

/// Byte offsets of the device-level fields (layouts in
/// src/ssd/ssd_snapshot.cpp, Ssd::save_state).
struct DeviceLayout {
  static constexpr std::size_t kRequestBytes = 37;
  static constexpr std::size_t kTallyBytes = 8;
  static constexpr std::size_t kJobBytes = 19;
  struct Queue {
    std::size_t count_at;  ///< u64 length, then u32 op ids
    std::uint64_t length;
  };
  std::vector<Queue> queues;  ///< channel read_q, then unit queues
  std::size_t busy_at[2] = {0, 0};  ///< u64 length of channel, unit times
  std::size_t requests_at = 0;
  std::uint64_t requests = 0;
  std::size_t tallies_at = 0;  ///< u64 length, then u32 failed, volatile
  std::uint64_t tallies = 0;
  std::size_t ops_at = 0;  ///< u64 slot count
  std::uint64_t ops = 0;
  std::size_t free_at = 0;  ///< u64 length, then u32 ids in pop order
  std::uint64_t free_len = 0;
  /// Record offset of each slot in use, in id order. A record holds u32
  /// request +0, u32 tenant +4, u8 kind +8, u32 ppn +9, u32 migration
  /// source +13, u32 job +17, u64 lpn, enqueue seq and dispatch time, u16
  /// attempts, and on a power-model device the u64 OOB seq.
  std::map<std::uint64_t, std::size_t> op_records;
  std::size_t jobs_at = 0;
  std::uint64_t jobs = 0;
  std::size_t barriers_at = 0;
  std::uint64_t barriers = 0;

  std::size_t request(std::uint64_t i) const {
    return requests_at + kRequestBytes * i;
  }
  std::size_t tally(std::uint64_t i) const {
    return tallies_at + 8 + kTallyBytes * i;
  }
  std::size_t job(std::uint64_t j) const { return jobs_at + kJobBytes * j; }
};

std::size_t find_tag_from(const std::vector<char>& payload, const char* tag,
                          std::size_t from) {
  while (std::memcmp(payload.data() + from, tag, 4) != 0) ++from;
  return from;
}

/// `power`: the device runs the power model, so each op record carries
/// its OOB seq.
DeviceLayout parse_device(const std::vector<char>& payload,
                          bool power = false) {
  DeviceLayout layout;
  std::size_t pos = find_tag_from(payload, "CHNL", 0) + 4;
  const auto ring = [&] {
    const std::uint64_t n = read_u64_at(payload, pos);
    layout.queues.push_back({pos, n});
    pos += 8 + 4 * n;
  };
  const std::uint64_t channels = read_u64_at(payload, pos);
  pos += 8;
  for (std::uint64_t c = 0; c < channels; ++c) {
    pos += 1 + 8;  // bus_busy, bus_free_at
    ring();
    pos += 1;  // rr_toggle
  }
  pos += 4;  // UNIT
  const std::uint64_t units = read_u64_at(payload, pos);
  pos += 8;
  for (std::uint64_t u = 0; u < units; ++u) {
    pos += 1 + 8;  // busy, busy_until
    ring();
    ring();
    ring();
  }
  for (std::size_t& busy : layout.busy_at) {
    busy = pos;
    pos += 8 + 8 * read_u64_at(payload, pos);
  }
  pos += 4;  // REQS
  layout.requests = read_u64_at(payload, pos);
  layout.requests_at = pos + 8;
  layout.tallies_at = layout.request(layout.requests);
  layout.tallies = read_u64_at(payload, layout.tallies_at);
  pos = layout.tally(layout.tallies) + 8 + 8;  // cursor, last arrival
  pos += 4;  // OPSL
  layout.ops_at = pos;
  layout.ops = read_u64_at(payload, pos);
  layout.free_at = pos + 8;
  layout.free_len = read_u64_at(payload, layout.free_at);
  std::vector<bool> free(layout.ops, false);
  for (std::uint64_t k = 0; k < layout.free_len; ++k) {
    free[read_u32_at(payload, layout.free_at + 8 + 4 * k)] = true;
  }
  pos = layout.free_at + 8 + 4 * layout.free_len;
  for (std::uint64_t id = 0; id < layout.ops; ++id) {
    if (free[id]) continue;
    layout.op_records[id] = pos;
    pos += 47 + (power ? 8 : 0);
  }
  pos += 8;  // next_enq_seq
  pos += 4;  // GCJB
  layout.jobs = read_u64_at(payload, pos);
  layout.jobs_at = pos + 8;
  pos = find_tag_from(payload, "PWRS", layout.job(layout.jobs)) + 4 + 2;
  layout.barriers = read_u64_at(payload, pos);
  layout.barriers_at = pos + 8;
  return layout;
}

// Regression: the REQS, OPSL, GCJB and queue loaders took type and kind
// bytes, counts, addresses and indices as given, and release loads never
// audit. Each mutation below loaded, and the device then dispatched on an
// invalid enum, indexed units_, the request table, the job table or the
// op slab out of bounds, or handed one slot out twice. Every field is now
// checked before use, and the error names its byte offset. A request of
// the internal GC tenant loaded too; the scheduler indexes its lanes by
// tenant id, so admitting one would size the lane vector at 2^32. So did
// a SCHD item naming an unarrived request (request 10^9 made admission
// read past the request table) or zero pages, and one naming an in-flight
// request or repeating another item's request (the replay then left one
// request incomplete forever). The OPSL ppn and migration source were read
// unchecked; the channel, unit, plane and block derive from the ppn.
TEST(DeviceSnapshot, RejectsResealedDeviceMutations) {
  // GC churn at its midpoint: in-flight host ops and an erase, queued
  // ops, free op slots and active GC jobs.
  const testing::GoldenRecipe recipe = testing::golden_gc_churn();
  const sim::Geometry& geometry = recipe.config.ssd.geometry;
  const auto device = device_at(recipe.requests, recipe.tenants,
                                recipe.config, recipe.requests.size() / 2);
  const std::vector<char> payload = payload_of(*device);
  ASSERT_NO_THROW(snapshot::load_device(snapshot::save_device(*device)));
  const DeviceLayout layout = parse_device(payload);
  ASSERT_EQ(layout.requests, recipe.requests.size());

  // --- busy-time accumulators, indexed by channel and by unit: drop the
  // last entry of each list.
  for (const std::size_t at : layout.busy_at) {
    expect_rejected(
        payload,
        [&](auto& b) {
          const std::uint64_t n = read_u64_at(b, at);
          write_u64_at(b, at, n - 1);
          const auto last = b.begin() + static_cast<std::ptrdiff_t>(at + 8 * n);
          b.erase(last, last + 8);
        },
        "busy times list", at);
  }

  // --- REQS: request 0.
  const std::size_t req = layout.request(0);
  const std::uint32_t pages = read_u32_at(payload, req + 21);
  expect_rejected(
      payload,
      [&](auto& b) { write_u32_at(b, req + 8, sim::kInternalTenant); },
      "internal GC tenant", req + 8);
  expect_rejected(
      payload, [&](auto& b) { b[req + 12] = 4; }, "not an OpType", req + 12);
  expect_rejected(
      payload, [&](auto& b) { write_u32_at(b, req + 21, 0); }, "zero pages",
      req + 21);
  expect_rejected(
      payload, [&](auto& b) { write_u32_at(b, req + 33, pages + 1); },
      "remaining count", req + 33);
  // GC churn records no tallies, and the tally list may not outgrow the
  // request table: give it one zero tally more than there are requests.
  ASSERT_EQ(layout.tallies, 0u);
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u64_at(b, layout.tallies_at, layout.requests + 1);
        const auto end = b.begin() +
                         static_cast<std::ptrdiff_t>(layout.tallies_at + 8);
        b.insert(end, DeviceLayout::kTallyBytes * (layout.requests + 1), 0);
      },
      "request tallies for", layout.tallies_at);

  // --- OPSL: the slots in use hold host ops and an erase.
  std::uint64_t host_op = layout.ops, erase_op = layout.ops;
  for (const auto& [id, at] : layout.op_records) {
    const auto kind = static_cast<std::uint8_t>(payload[at + 8]);
    if (kind <= 1 && host_op == layout.ops) host_op = id;
    if (kind == 4 && erase_op == layout.ops) erase_op = id;
  }
  ASSERT_LT(host_op, layout.ops) << "no in-use host op";
  ASSERT_LT(erase_op, layout.ops) << "no in-use erase op";
  const std::size_t op = layout.op_records.at(host_op);
  expect_rejected(
      payload, [&](auto& b) { b[op + 8] = 6; }, "not an OpKind", op + 8);
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u32_at(b, op, static_cast<std::uint32_t>(layout.requests));
      },
      "names request", op);
  // The channel, unit, plane and block derive from the ppn (+9): it must
  // be a page of the device, and an erase's must be its block's first.
  const auto pages_total = static_cast<std::uint32_t>(geometry.total_pages());
  expect_rejected(
      payload, [&](auto& b) { write_u32_at(b, op + 9, pages_total); },
      "outside the device's", op + 9);
  const std::size_t erase = layout.op_records.at(erase_op);
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u32_at(b, erase + 9, read_u32_at(b, erase + 9) + 1);
      },
      "not its block's first page", erase + 9);
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u32_at(b, erase + 17, static_cast<std::uint32_t>(layout.jobs));
      },
      "names gc job", erase + 17);
  // The records of the slots in use must fit the rest of the payload
  // before the slab is allocated.
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u64_at(b, layout.ops_at,
                     layout.ops + (b.size() - layout.ops_at) / 8);
      },
      "op slots in use need", layout.ops_at);
  // golden_gc_migrate's midpoint holds GC writes in flight: a migration
  // source (+13) must be a page of the device.
  const testing::GoldenRecipe migrate = testing::golden_gc_migrate();
  const auto migrating = device_at(migrate.requests, migrate.tenants,
                                   migrate.config, migrate.requests.size() / 2);
  const std::vector<char> migrate_payload = payload_of(*migrating);
  std::size_t gc_write = 0;
  for (const auto& [id, at] : parse_device(migrate_payload).op_records) {
    if (migrate_payload[at + 8] == 3 && gc_write == 0) gc_write = at;
  }
  ASSERT_NE(gc_write, 0u) << "no GC write in flight";
  ASSERT_EQ(migrate.config.ssd.geometry.total_pages(), pages_total);
  expect_rejected(
      migrate_payload,
      [&](auto& b) { write_u32_at(b, gc_write + 13, pages_total); },
      "migration source", gc_write + 13);

  // --- free list, in pop order.
  ASSERT_GE(layout.free_len, 2u) << "no two free op slots";
  const std::size_t free0 = layout.free_at + 8;
  const std::uint32_t free_id = read_u32_at(payload, free0);
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u32_at(b, free0, static_cast<std::uint32_t>(layout.ops));
      },
      "outside the", free0);
  expect_rejected(
      payload, [&](auto& b) { write_u32_at(b, free0 + 4, free_id); }, "twice",
      free0 + 4);

  // --- op queues: a non-front entry of some queue.
  const DeviceLayout::Queue* queue = nullptr;
  for (const auto& q : layout.queues) {
    if (q.length >= 2) queue = &q;
  }
  ASSERT_NE(queue, nullptr) << "no op queue holds two entries";
  const std::size_t second = queue->count_at + 8 + 4;
  expect_rejected(
      payload,
      [&](auto& b) {
        write_u32_at(b, second, static_cast<std::uint32_t>(layout.ops));
      },
      "op queue names op", second);
  expect_rejected(
      payload, [&](auto& b) { write_u32_at(b, second, free_id); },
      "free op slot", second);

  // --- GCJB: job 0.
  ASSERT_GT(layout.jobs, 0u);
  const std::size_t job = layout.job(0);
  expect_rejected(
      payload,
      [&](auto& b) { write_u64_at(b, job, geometry.total_planes()); },
      "plane", job);
  expect_rejected(
      payload,
      [&](auto& b) { write_u32_at(b, job + 8, geometry.blocks_per_plane); },
      "victim block", job + 8);

  // --- PWRS: a flush barrier lives between a flush's arrival and its last
  // fenced program; scan pause points of a flushing workload for one. Its
  // buffered writes also record volatile page counts in the REQS tallies.
  ssd::SsdOptions powered;
  powered.geometry = sim::Geometry::tiny();
  powered.power.enabled = true;
  powered.write_buffer.capacity_pages = 4;
  std::vector<sim::IoRequest> flushing;
  for (std::uint64_t i = 0; i < 64; ++i) {
    sim::IoRequest r;
    r.id = i;
    r.type = i % 8 == 7 ? sim::OpType::kFlush : sim::OpType::kWrite;
    r.lpn = i % 24;
    r.arrival = 50 * i;
    flushing.push_back(r);
  }
  bool barrier_seen = false;
  for (std::uint64_t pause = 8; pause < 64 && !barrier_seen; ++pause) {
    ssd::Ssd flusher(powered);
    flusher.submit(flushing);
    flusher.run_until_arrival(pause);
    const std::vector<char> bytes = payload_of(flusher);
    const DeviceLayout flush_layout = parse_device(bytes, true);
    if (flush_layout.barriers == 0) continue;
    barrier_seen = true;
    ASSERT_NO_THROW(snapshot::load_device(snapshot::save_device(flusher)));
    const std::size_t at = flush_layout.barriers_at;
    expect_rejected(
        bytes, [&](auto& b) { write_u64_at(b, at, flush_layout.requests); },
        "flush barrier 0 names request", at);
    ASSERT_GT(flush_layout.tallies, 0u);
    const std::uint32_t pages0 =
        read_u32_at(bytes, flush_layout.request(0) + 21);
    for (const auto& [field, tally_at] :
         {std::pair{"failed count", flush_layout.tally(0)},
          std::pair{"volatile page count", flush_layout.tally(0) + 4}}) {
      expect_rejected(
          bytes, [&](auto& b) { write_u32_at(b, tally_at, pages0 + 1); },
          field, tally_at);
    }
  }
  EXPECT_TRUE(barrier_seen) << "no pause point holds a live flush barrier";

  // --- SCHD: WFQ with a two-request window, stopped mid-backlog.
  ssd::SsdOptions fair;
  fair.sched.policy = sched::Policy::kWfq;
  fair.sched.max_outstanding_requests = 2;
  std::vector<sim::IoRequest> backlog;
  for (std::uint64_t i = 0; i < 200; ++i) {
    sim::IoRequest r;
    r.id = i;
    r.tenant = static_cast<sim::TenantId>(i % 2);
    r.type = sim::OpType::kWrite;
    r.lpn = 4 * i;
    r.page_count = 4;
    r.arrival = i * kMicrosecond;
    backlog.push_back(r);
  }
  ssd::Ssd queued(fair);
  queued.submit(backlog);
  queued.run_until_arrival(100);
  ASSERT_GT(queued.scheduler().pending(), 0u);
  ASSERT_NO_THROW(snapshot::load_device(snapshot::save_device(queued)));
  const std::vector<char> sched_bytes = payload_of(queued);
  // u8 policy, u64 outstanding, decisions, next seq and vtime, u32 DRR
  // cursor, u64 lane count; then per lane three u64 credit fields, a u64
  // item count and 44-byte items (u64 request index, u32 page count, ...).
  const std::size_t pwrs = parse_device(sched_bytes).barriers_at;
  std::size_t lane =
      find_tag_from(sched_bytes, "SCHD", pwrs) + 4 + 1 + 4 * 8 + 4 + 8;
  while (read_u64_at(sched_bytes, lane + 24) == 0) lane += 32;
  const std::size_t item = lane + 32;
  expect_rejected(
      sched_bytes,
      [&](auto& b) { write_u64_at(b, item, 1'000'000'000); },
      "at or past the arrival cursor", item);
  expect_rejected(
      sched_bytes, [&](auto& b) { write_u32_at(b, item + 8, 0); },
      "zero pages", item + 8);
  // Request 0 was admitted and is still in flight with every page
  // remaining, so only its in-use ops show it started; queueing it again
  // would admit it twice. So would a second item repeating the first
  // one's request.
  const std::size_t req0 = parse_device(sched_bytes).request(0);
  ASSERT_NE(read_u64_at(sched_bytes, item), 0u);
  ASSERT_EQ(read_u32_at(sched_bytes, req0 + 33),
            read_u32_at(sched_bytes, req0 + 21))
      << "request 0 has completed pages";
  expect_rejected(
      sched_bytes, [&](auto& b) { write_u64_at(b, item, 0); },
      "already started", item);
  ASSERT_GE(read_u64_at(sched_bytes, lane + 24), 2u);
  const std::size_t second_item = item + 44;
  expect_rejected(
      sched_bytes,
      [&](auto& b) { write_u64_at(b, second_item, read_u64_at(b, item)); },
      "queued twice", second_item);
}

// Regression: the EVTQ loader took every pending event as given, and the
// OPTS loader cast the policy byte unchecked and let a geometry error
// escape as std::invalid_argument. Each mutation below loaded; the run
// loop would then skip an unknown kind, index units_, channels_, the op
// slab or the request table out of bounds, break the unique (time, seq)
// order or move the clock backwards.
TEST(DeviceSnapshot, RejectsResealedEventAndOptionMutations) {
  // Mid-run, these devices hold pending events of every kind the device
  // schedules: flash completions, bus releases, merged non-pipelined write
  // completions and write-buffer completions. A buffered write holds its
  // buffer completions for 2 us, so the last device stops 0.5 us after
  // one.
  GoldenRecipe buffered;
  buffered.name = "buffered_write";
  buffered.tenants = 1;
  buffered.config.ssd.write_buffer.capacity_pages = 8;
  for (std::uint64_t i = 0; i < 2; ++i) {
    sim::IoRequest r;
    r.id = i;
    r.type = sim::OpType::kWrite;
    r.lpn = 4 * i;
    r.page_count = 2;
    r.arrival = 1000 + 500 * i;
    buffered.requests.push_back(r);
  }
  const GoldenRecipe recipes[] = {testing::golden_gc_churn(),
                                  testing::golden_multiplane_writes(),
                                  buffered};
  std::map<sim::EventKind, int> kinds_seen;
  for (const GoldenRecipe& recipe : recipes) {
    SCOPED_TRACE(recipe.name);
    const auto device = device_at(recipe.requests, recipe.tenants,
                                  recipe.config, recipe.requests.size() / 2);
    const std::vector<char> payload = payload_of(*device);
    const DeviceLayout layout = parse_device(payload);
    ASSERT_GT(device->now(), 0u);

    // --- EVTQ: u64 next_seq, u64 count, then 33-byte events (u64 time,
    // u64 seq, u8 kind, u64 a, u64 b).
    const std::size_t evtq = find_tag_from(payload, "EVTQ", 0) + 4;
    const std::uint64_t next_seq = read_u64_at(payload, evtq);
    const std::uint64_t count = read_u64_at(payload, evtq + 8);
    ASSERT_GE(count, 2u);
    const auto event = [&](std::uint64_t i) { return evtq + 16 + 33 * i; };
    const std::size_t first = event(0);
    expect_rejected(
        payload, [&](auto& b) { write_u64_at(b, first, 0); },
        "before the clock", first);
    expect_rejected(
        payload, [&](auto& b) { write_u64_at(b, first + 8, next_seq + 5); },
        "not below next_seq", first + 8);
    expect_rejected(
        payload,
        [&](auto& b) {
          write_u64_at(b, event(1) + 8, read_u64_at(b, first + 8));
        },
        "used twice", event(1) + 8);
    expect_rejected(
        payload, [&](auto& b) { b[first + 16] = 9; }, "not an EventKind",
        first + 16);
    // Arrivals come from the request cursor, so the device never
    // schedules an arrival event: one naming an admitted request would
    // admit it a second time.
    expect_rejected(
        payload,
        [&](auto& b) {
          b[first + 16] = static_cast<char>(sim::EventKind::kArrival);
          write_u64_at(b, first + 17, 0);
        },
        "is an arrival", first + 16);

    // Payloads of the first event of each kind.
    const std::uint64_t free_id =
        layout.free_len > 0 ? read_u32_at(payload, layout.free_at + 8)
                            : layout.ops;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::size_t at = event(i);
      const auto kind = static_cast<sim::EventKind>(payload[at + 16]);
      if (kinds_seen[kind]++ > 0) continue;
      const std::uint64_t b_op = read_u64_at(payload, at + 25);
      switch (kind) {
        case sim::EventKind::kFlashDone:
        case sim::EventKind::kWriteDone:
          expect_rejected(
              payload, [&](auto& b) { write_u64_at(b, at + 17, 1ULL << 20); },
              "names unit", at + 17);
          expect_rejected(
              payload, [&](auto& b) { write_u64_at(b, at + 25, 1ULL << 40); },
              "names op", at + 25);
          if (free_id < layout.ops) {
            expect_rejected(
                payload, [&](auto& b) { write_u64_at(b, at + 25, free_id); },
                "free op slot", at + 25);
          }
          break;
        case sim::EventKind::kBusFree:
          expect_rejected(
              payload, [&](auto& b) { write_u64_at(b, at + 17, 1ULL << 20); },
              "names channel", at + 17);
          if (b_op != sim::kNoOp) {
            expect_rejected(
                payload,
                [&](auto& b) { write_u64_at(b, at + 25, 1ULL << 40); },
                "names op", at + 25);
          }
          break;
        case sim::EventKind::kBufferDone:
          expect_rejected(
              payload,
              [&](auto& b) { write_u64_at(b, at + 17, layout.requests); },
              "names request", at + 17);
          break;
        case sim::EventKind::kArrival:
          ADD_FAILURE() << "the device scheduled an arrival event";
          break;
      }
    }

    // --- OPTS: the policy byte sits before the max-outstanding u32, the
    // u64 share count and 16 bytes per share.
    const std::size_t policy_at =
        find_tag_from(payload, "SSD_", 0) - (4 + 8) -
        16 * device->options().sched.shares.size() - 1;
    expect_rejected(
        payload, [&](auto& b) { b[policy_at] = 9; }, "not a policy",
        policy_at);
    // The geometry's channel count is OPTS' first field.
    expect_rejected(
        payload, [&](auto& b) { write_u32_at(b, 4, 0); },
        "OPTS section at offset 0 holds invalid device options", 0);
    // The timing's transfer rate (f64 at +52) and the high watermark (f64
    // at +112) are cast to integers when the device is built; a NaN is
    // refused before that.
    const auto f64_at = [&](std::size_t at) {
      double v = 0;
      std::memcpy(&v, payload.data() + at, sizeof(v));
      return v;
    };
    ASSERT_EQ(f64_at(52), device->options().timing.xfer_ns_per_byte);
    ASSERT_EQ(f64_at(112), device->options().write_buffer.high_watermark);
    for (const std::size_t at : {std::size_t{52}, std::size_t{112}}) {
      expect_rejected(
          payload,
          [&](auto& b) {
            const double nan = std::numeric_limits<double>::quiet_NaN();
            std::memcpy(b.data() + at, &nan, sizeof(nan));
          },
          "OPTS section at offset 0 holds invalid device options", 0);
    }
  }
  for (const auto kind :
       {sim::EventKind::kFlashDone, sim::EventKind::kBusFree,
        sim::EventKind::kBufferDone, sim::EventKind::kWriteDone}) {
    EXPECT_GT(kinds_seen[kind], 0)
        << "no pending event of kind " << static_cast<int>(kind);
  }
}

TEST(DeviceSnapshot, L2pmStoresFourBytesPerEntry) {
  const auto requests = pipeline_workload();
  const auto cut = static_cast<std::uint64_t>(
      0.7 * static_cast<double>(requests.size()));
  const auto device = device_at(requests, 4, core::RunConfig{}, cut);
  const ftl::MappingTable& map = device->ftl().mapping();
  snapshot::StateWriter l2pm;
  map.save_state(l2pm);
  std::size_t expected = 4 + 8;  // tag, tenant count
  std::uint64_t entries = 0;
  for (sim::TenantId t = 0; t < map.tenant_table_count(); ++t) {
    const std::uint64_t span = map.table_span(t);
    EXPECT_EQ(span % ftl::MappingTable::kSpanStep, 0u);
    expected += 8 + 4 * span;  // span, entries
    entries += span;
  }
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(l2pm.size(), expected);

  const std::vector<char> bytes = snapshot::save_device(*device);
  EXPECT_EQ(read_u32_at(bytes, 8), snapshot::kSnapshotVersion);
  EXPECT_EQ(snapshot::save_device(*snapshot::load_device(bytes)), bytes);
}

TEST(DeviceSnapshot, RefusesVersion4Container) {
  const ssd::Ssd device{ssd::SsdOptions{}};
  const std::vector<char> saved = snapshot::save_device(device);
  ASSERT_EQ(read_u32_at(saved, 8), 8u);  // version follows the magic
  // Version 5 carried the per-policy SCHD layouts, version 6 every op slot
  // with its address written twice, version 7 the FTL's derived counts
  // and lists.
  for (const std::uint32_t version : {4u, 5u, 6u, 7u}) {
    std::vector<char> bytes = saved;
    write_u32_at(bytes, 8, version);
    try {
      snapshot::load_device(bytes);
      ADD_FAILURE() << "accepted a version " << version << " container";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DeviceSnapshot, BlockStateIndependentOfCapacity) {
  // A label-sweep prefix: no block has been erased at the fork point, so
  // the opened blocks are the same whatever the plane's capacity.
  const auto requests = pipeline_workload();
  const auto cut = static_cast<std::uint64_t>(
      0.7 * static_cast<double>(requests.size()));
  struct Outcome {
    std::size_t blkm_bytes;
    std::size_t snapshot_bytes;
    core::RunResult result;
    std::map<sim::TenantId, sim::TenantMetrics> samples;  ///< the device's
  };
  auto run = [&](const sim::Geometry& geometry) {
    core::RunConfig config;
    config.ssd.geometry = geometry;
    auto device = device_at(requests, 4, config, cut);
    EXPECT_EQ(core::summarize(*device).counters.erases, 0u);
    snapshot::StateWriter blkm;
    device->ftl().blocks().save_state(blkm);
    Outcome out{blkm.size(), snapshot::save_device(*device).size(), {}, {}};
    device->run_to_completion();
    out.result = core::summarize(*device);
    out.samples = device->metrics().all_tenants();
    return out;
  };
  sim::Geometry wide = sim::Geometry::small();
  wide.blocks_per_plane *= 16;
  const Outcome small = run(sim::Geometry::small());
  const Outcome big = run(wide);
  const Outcome paper = run(sim::Geometry::paper());
  EXPECT_EQ(small.blkm_bytes, big.blkm_bytes);
  EXPECT_LT(paper.snapshot_bytes, 5u * 1000 * 1000);

  for (const Outcome* other : {&big, &paper}) {
    const core::RunResult& a = small.result;
    const core::RunResult& b = other->result;
    EXPECT_EQ(a.total_us, b.total_us);
    EXPECT_EQ(a.avg_read_us, b.avg_read_us);
    EXPECT_EQ(a.avg_write_us, b.avg_write_us);
    EXPECT_EQ(a.p99_read_us, b.p99_read_us);
    EXPECT_EQ(a.p99_write_us, b.p99_write_us);
    EXPECT_EQ(a.counters.page_ops, b.counters.page_ops);
    EXPECT_EQ(a.counters.conflicts, b.counters.conflicts);
    EXPECT_EQ(a.counters.erases, b.counters.erases);
    ASSERT_EQ(a.per_tenant.size(), b.per_tenant.size());
    ASSERT_EQ(small.samples.size(), other->samples.size());
    for (const auto& [tenant, m] : small.samples) {
      EXPECT_EQ(m.read_latency_us.samples(),
                other->samples.at(tenant).read_latency_us.samples());
      EXPECT_EQ(m.write_latency_us.samples(),
                other->samples.at(tenant).write_latency_us.samples());
    }
  }
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
