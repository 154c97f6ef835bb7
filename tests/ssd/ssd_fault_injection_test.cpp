// Fault injection through the timed pipeline: read retries with escalating
// sense latency, uncorrectable completions, program-failure re-placement,
// and threshold-based block retirement — all reproducible from the
// FaultModel seed.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ssd/ssd.hpp"
#include "util/rng.hpp"

namespace ssdk::ssd {
namespace {

SsdOptions tiny_options() {
  SsdOptions options;
  options.geometry = sim::Geometry::tiny();  // 2ch x 1chip x 1plane x 8blk x 8pg
  return options;
}

void submit_stream(Ssd& ssd, std::uint64_t count, double write_fraction,
                   std::uint64_t working_set,
                   Duration gap = 500 * kMicrosecond) {
  Rng rng(7);
  for (std::uint64_t i = 0; i < count; ++i) {
    sim::IoRequest r;
    r.id = i;
    r.tenant = 0;
    r.type = rng.next_double() < write_fraction ? sim::OpType::kWrite
                                                : sim::OpType::kRead;
    r.lpn = rng.next_below(working_set);
    r.page_count = 1;
    r.arrival = i * gap;
    ssd.submit(r);
  }
  ssd.run_to_completion();
}

struct FaultSummary {
  std::uint64_t read_retries;
  std::uint64_t uncorrectable_reads;
  std::uint64_t program_fails;
  std::uint64_t erase_fails;
  std::uint64_t retired_blocks;
  std::uint64_t rescue_migrations;
  std::uint64_t lost_pages;
  Duration retry_wait_ns;
  double total_us;

  bool operator==(const FaultSummary&) const = default;
};

FaultSummary run_faulty(const sim::FaultModel& faults) {
  SsdOptions options = tiny_options();
  options.faults = faults;
  Ssd ssd(options);
  submit_stream(ssd, 400, 0.6, 24);
  const auto& c = ssd.metrics().counters();
  return FaultSummary{c.read_retries,
                      c.uncorrectable_reads,
                      c.program_fails,
                      c.erase_fails,
                      c.retired_blocks,
                      c.rescue_migrations,
                      c.lost_pages,
                      c.retry_wait_ns,
                      ssd.metrics().tenant(0).total_us()};
}

TEST(SsdFaultInjection, DisabledModelRecordsNothing) {
  Ssd ssd(tiny_options());
  bool any_failed = false;
  ssd.set_completion_hook([&](const sim::Completion& c) {
    any_failed |= c.status != sim::IoStatus::kOk || c.failed_pages != 0;
  });
  submit_stream(ssd, 300, 0.5, 24);
  const auto& c = ssd.metrics().counters();
  EXPECT_EQ(c.read_retries, 0u);
  EXPECT_EQ(c.uncorrectable_reads, 0u);
  EXPECT_EQ(c.program_fails, 0u);
  EXPECT_EQ(c.erase_fails, 0u);
  EXPECT_EQ(c.retired_blocks, 0u);
  EXPECT_EQ(c.rescue_migrations, 0u);
  EXPECT_EQ(c.retry_wait_ns, 0u);
  EXPECT_EQ(ssd.metrics().tenant(0).read_retries, 0u);
  EXPECT_FALSE(any_failed);
}

TEST(SsdFaultInjection, SameSeedIsBitIdentical) {
  sim::FaultModel faults;
  faults.read_ber = 0.05;
  faults.program_fail = 0.02;
  faults.erase_fail = 0.05;
  const FaultSummary a = run_faulty(faults);
  const FaultSummary b = run_faulty(faults);
  EXPECT_EQ(a, b);
  // The fault config above is aggressive enough that every class of event
  // actually fired — otherwise the determinism check is vacuous.
  EXPECT_GT(a.read_retries, 0u);
  EXPECT_GT(a.program_fails, 0u);
}

TEST(SsdFaultInjection, DifferentSeedDiverges) {
  sim::FaultModel faults;
  faults.read_ber = 0.05;
  faults.program_fail = 0.02;
  const FaultSummary a = run_faulty(faults);
  faults.seed ^= 0x9E3779B97F4A7C15ULL;
  const FaultSummary b = run_faulty(faults);
  EXPECT_NE(a, b);
}

TEST(SsdFaultInjection, RetryLatencyGolden) {
  // read_ber = 1 makes every ECC check fail deterministically (retries are
  // bounded, so this terminates): one read must cost exactly the initial
  // sense + transfer, plus per retry the escalated sense + re-transfer,
  // then complete as uncorrectable.
  SsdOptions options = tiny_options();
  options.faults.read_ber = 1.0;
  options.faults.max_read_retries = 2;
  Ssd ssd(options);
  std::vector<sim::Completion> done;
  ssd.set_completion_hook(
      [&](const sim::Completion& c) { done.push_back(c); });
  sim::IoRequest r;
  r.id = 1;
  r.tenant = 0;
  r.type = sim::OpType::kRead;
  r.lpn = 0;
  r.page_count = 1;
  r.arrival = 0;
  ssd.submit(r);
  ssd.run_to_completion();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, sim::IoStatus::kUncorrectable);
  EXPECT_EQ(done[0].failed_pages, 1u);
  const Duration xfer =
      options.timing.page_transfer_ns(options.geometry);
  const Duration expect = options.timing.read_ns + xfer +
                          options.timing.read_retry_ns(1) + xfer +
                          options.timing.read_retry_ns(2) + xfer;
  EXPECT_EQ(done[0].finish - done[0].arrival, expect);

  const auto& t = ssd.metrics().tenant(0);
  EXPECT_EQ(t.read_retries, 2u);
  EXPECT_EQ(t.uncorrectable_reads, 1u);
  EXPECT_EQ(t.retry_wait_ns, options.timing.read_retry_ns(1) +
                                 options.timing.read_retry_ns(2) + 2 * xfer);
  EXPECT_EQ(ssd.metrics().counters().uncorrectable_reads, 1u);
}

TEST(SsdFaultInjection, ProgramFailuresAreReplacedWithoutDataLoss) {
  SsdOptions options = tiny_options();
  options.faults.program_fail = 0.3;
  // Keep retirement out of the picture: this test checks pure re-placement.
  options.faults.program_fails_to_retire = 1000;
  Ssd ssd(options);
  submit_stream(ssd, 300, 1.0, 24);
  const auto& c = ssd.metrics().counters();
  EXPECT_GT(c.program_fails, 0u);
  EXPECT_EQ(c.retired_blocks, 0u);
  // Device-wide fails = host-attributed retries + GC-internal ones.
  std::uint64_t attributed = 0;
  for (const auto& [tenant, m] : ssd.metrics().all_tenants()) {
    attributed += m.program_retries;
  }
  EXPECT_EQ(attributed, c.program_fails);
  EXPECT_GT(ssd.metrics().tenant(0).program_retries, 0u);
  // Every written LPN still resolves to a valid page after the re-places.
  EXPECT_EQ(ssd.ftl().mapping().mapped_count(0),
            ssd.ftl().blocks().total_valid_pages());
  for (std::uint64_t lpn = 0; lpn < 24; ++lpn) {
    const sim::Ppn p = ssd.ftl().mapping().lookup(0, lpn);
    if (p == sim::kInvalidPpn) continue;  // LPN never drawn by the stream
    EXPECT_TRUE(ssd.ftl().blocks().is_valid(p));
  }
}

TEST(SsdFaultInjection, RetirementRescuesValidPagesAndStopsAllocation) {
  SsdOptions options = tiny_options();
  options.faults.program_fail = 0.08;
  options.faults.program_fails_to_retire = 2;
  Ssd ssd(options);
  // Fail counts persist across erases, so with ~26 expected failures over
  // 16 blocks some block crosses the 2-failure threshold. The wide gap
  // keeps GC ahead of the shrinking capacity so the stream completes.
  submit_stream(ssd, 300, 1.0, 24, 2 * kMillisecond);
  const auto& c = ssd.metrics().counters();
  EXPECT_GT(c.retired_blocks, 0u);
  EXPECT_EQ(ssd.ftl().blocks().retired_blocks(), c.retired_blocks);
  const auto& geom = options.geometry;
  std::uint64_t retired_seen = 0;
  for (std::uint64_t pl = 0; pl < geom.total_planes(); ++pl) {
    for (std::uint32_t b = 0; b < geom.blocks_per_plane; ++b) {
      if (ssd.ftl().blocks().block_state(pl, b) !=
          ftl::BlockState::kRetired) {
        continue;
      }
      ++retired_seen;
      // Rescue drained every valid page off the retired block.
      EXPECT_EQ(ssd.ftl().blocks().valid_count(pl, b), 0u);
    }
  }
  EXPECT_EQ(retired_seen, c.retired_blocks);
  // No data lost: the mapping and validity bookkeeping still agree.
  EXPECT_EQ(ssd.ftl().mapping().mapped_count(0),
            ssd.ftl().blocks().total_valid_pages());
}

TEST(SsdFaultInjection, EraseFailureRetiresAtThreshold) {
  SsdOptions options = tiny_options();
  options.faults.erase_fail = 0.15;
  options.faults.erase_fails_to_retire = 1;
  Ssd ssd(options);
  // Overwrite pressure forces GC erases, some of which fail and retire
  // their block on the spot. The stream stays inside the shrinking
  // device's capacity budget.
  submit_stream(ssd, 300, 1.0, 16, 2 * kMillisecond);
  const auto& c = ssd.metrics().counters();
  EXPECT_GT(c.erase_fails, 0u);
  EXPECT_GT(c.retired_blocks, 0u);
  EXPECT_EQ(ssd.ftl().blocks().retired_blocks(), c.retired_blocks);
}

TEST(SsdFaultInjection, EnduranceLimitRetiresCleanBlocks) {
  SsdOptions options = tiny_options();
  options.faults.max_pe_cycles = 2;
  Ssd ssd(options);
  // A block's final erase retires it immediately, so that erase reclaims
  // nothing: each block contributes max_pe_cycles - 1 productive erases
  // and the workload is sized to exceed that budget. Wearing the device
  // out completely is an acceptable end state here.
  try {
    submit_stream(ssd, 300, 1.0, 8, 2 * kMillisecond);
  } catch (const ftl::DeviceFullError&) {
  }
  const auto& c = ssd.metrics().counters();
  EXPECT_GT(c.retired_blocks, 0u);
  const auto& geom = options.geometry;
  for (std::uint64_t pl = 0; pl < geom.total_planes(); ++pl) {
    for (std::uint32_t b = 0; b < geom.blocks_per_plane; ++b) {
      // No surviving block may exceed the endurance limit.
      if (ssd.ftl().blocks().block_state(pl, b) !=
          ftl::BlockState::kRetired) {
        EXPECT_LT(ssd.ftl().blocks().erase_count(pl, b),
                  options.faults.max_pe_cycles);
      }
    }
  }
}

// Every FaultModel::validate rule, one broken field per case: the device
// constructor refuses each model with std::invalid_argument. The two
// retirement thresholds are checked only on an enabled model.
TEST(SsdFaultInjection, RejectsInvalidModel) {
  using Break = void (*)(sim::FaultModel&);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<const char*, Break> cases[] = {
      {"read_ber < 0", [](sim::FaultModel& f) { f.read_ber = -0.1; }},
      {"read_ber > 1", [](sim::FaultModel& f) { f.read_ber = 1.5; }},
      {"read_ber NaN", [](sim::FaultModel& f) { f.read_ber = kNan; }},
      {"read_ber_per_pe < 0",
       [](sim::FaultModel& f) { f.read_ber_per_pe = -0.1; }},
      {"read_ber_per_pe > 1",
       [](sim::FaultModel& f) { f.read_ber_per_pe = 2.0; }},
      {"read_ber_per_pe NaN",
       [](sim::FaultModel& f) { f.read_ber_per_pe = kNan; }},
      {"program_fail < 0", [](sim::FaultModel& f) { f.program_fail = -0.1; }},
      {"program_fail = 1", [](sim::FaultModel& f) { f.program_fail = 1.0; }},
      {"program_fail NaN", [](sim::FaultModel& f) { f.program_fail = kNan; }},
      {"erase_fail < 0", [](sim::FaultModel& f) { f.erase_fail = -0.1; }},
      {"erase_fail = 1", [](sim::FaultModel& f) { f.erase_fail = 1.0; }},
      {"erase_fail NaN", [](sim::FaultModel& f) { f.erase_fail = kNan; }},
      {"max_read_retries > 65535",
       [](sim::FaultModel& f) { f.max_read_retries = 65536; }},
      {"program_fails_to_retire = 0 (enabled)",
       [](sim::FaultModel& f) {
         f.read_ber = 0.01;
         f.program_fails_to_retire = 0;
       }},
      {"erase_fails_to_retire = 0 (enabled)",
       [](sim::FaultModel& f) {
         f.max_pe_cycles = 10;
         f.erase_fails_to_retire = 0;
       }},
  };
  for (const auto& [name, breaks] : cases) {
    SsdOptions options = tiny_options();
    breaks(options.faults);
    EXPECT_THROW(Ssd{options}, std::invalid_argument) << name;
  }

  // The boundaries themselves are valid: certain read failure (retries
  // bound it), 65535 retries, and zero thresholds on a disabled model.
  SsdOptions edge = tiny_options();
  edge.faults.read_ber = 1.0;
  edge.faults.read_ber_per_pe = 1.0;
  edge.faults.max_read_retries = 65535;
  EXPECT_NO_THROW(Ssd{edge});
  SsdOptions disabled = tiny_options();
  disabled.faults.program_fails_to_retire = 0;
  disabled.faults.erase_fails_to_retire = 0;
  EXPECT_NO_THROW(Ssd{disabled});
}

}  // namespace
}  // namespace ssdk::ssd
