// Golden hashes of the synthetic trace generators.
//
// Fleet epochs, migration previews, isolated baselines and synthesized
// training mixes all regenerate their traffic through
// trace::generate_synthetic. Its Zipf address draws depend on the exact
// double that the generator's normalization sum produces: one ulp there
// moves LPNs and silently changes every simulated result downstream. The
// FNV-1a hashes below pin the generated streams, so a change to the Zipf
// math (a reordered sum, a closed form, a stale memo) fails loudly here
// rather than as a drifted fleet fingerprint. Re-record them only for a
// deliberate change to the generated traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/label_gen.hpp"
#include "fleet/fleet.hpp"
#include "snapshot/archive.hpp"

namespace ssdk {
namespace {

// Every field is widened to u64, so the hash does not depend on struct
// layout or padding.
std::uint64_t hash_records(const std::vector<trace::TraceRecord>& records) {
  snapshot::StateWriter w;
  w.u64(records.size());
  for (const auto& r : records) {
    w.u64(r.arrival);
    w.u64(static_cast<std::uint64_t>(r.type));
    w.u64(r.lpn);
    w.u64(r.pages);
  }
  return snapshot::fnv1a(w.buffer());
}

std::uint64_t hash_requests(const std::vector<sim::IoRequest>& requests) {
  snapshot::StateWriter w;
  w.u64(requests.size());
  for (const auto& r : requests) {
    w.u64(r.id);
    w.u64(r.tenant);
    w.u64(static_cast<std::uint64_t>(r.type));
    w.u64(r.lpn);
    w.u64(r.page_count);
    w.u64(r.arrival);
  }
  return snapshot::fnv1a(w.buffer());
}

TEST(TraceGolden, FleetEpochRecords) {
  const Duration epoch_ns = 50 * kMillisecond;
  const auto specs = fleet::make_tenant_specs(96, 32, epoch_ns);
  struct Case {
    std::uint32_t tenant;
    std::uint32_t epoch;
    std::uint64_t hash;
  };
  // Tenant 0 is a heavy writer, 1 a reader, 2 a mixed tenant.
  const Case cases[] = {
      {0, 0, 16170392998757023730ULL},
      {1, 0, 2672388070289894916ULL},
      {2, 3, 4350151945654882855ULL},
      {32, 7, 6958322949781221484ULL},
      {95, 5, 3371930431171013617ULL},
  };
  for (const Case& c : cases) {
    const auto records =
        fleet::epoch_records(specs[c.tenant], /*fleet_seed=*/1, c.epoch,
                             epoch_ns);
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(hash_records(records), c.hash)
        << "tenant " << c.tenant << " epoch " << c.epoch;
  }
}

TEST(TraceGolden, SynthesizedMixes) {
  const core::DatasetGenConfig config;
  const std::uint64_t expected[] = {
      15928444831069306017ULL,
      7465923342626805200ULL,
      4365407027704006848ULL,
      6979062402609386440ULL,
  };
  for (std::uint64_t row = 0; row < 4; ++row) {
    const auto requests = core::synthesize_mix(config, row);
    ASSERT_FALSE(requests.empty());
    EXPECT_EQ(hash_requests(requests), expected[row]) << "row " << row;
  }
}

}  // namespace
}  // namespace ssdk
