#include "ftl/ftl.hpp"

#include <gtest/gtest.h>

#include <set>

#include "load_view_helper.hpp"

namespace ssdk::ftl {
namespace {

auto idle_load() {
  return make_load_view([](std::uint32_t) -> Duration { return 0; },
                        [](std::uint32_t) -> Duration { return 0; });
}

TEST(Ftl, DefaultTenantSeesAllChannels) {
  Ftl ftl(sim::Geometry::small());
  EXPECT_EQ(ftl.tenant_channels(0).size(), 8u);
  EXPECT_EQ(ftl.tenant_alloc_mode(0), AllocMode::kStatic);
}

TEST(Ftl, SetTenantChannelsValidates) {
  Ftl ftl(sim::Geometry::small());
  EXPECT_THROW(ftl.set_tenant_channels(0, {}), std::invalid_argument);
  EXPECT_THROW(ftl.set_tenant_channels(0, {99}), std::invalid_argument);
  ftl.set_tenant_channels(0, {3, 1, 3});
  const auto& chs = ftl.tenant_channels(0);
  ASSERT_EQ(chs.size(), 2u);  // deduplicated + sorted
  EXPECT_EQ(chs[0], 1u);
  EXPECT_EQ(chs[1], 3u);
}

// Regression: a const query for a higher tenant used to grow the policy
// table and reallocate it, leaving an earlier tenant_channels() reference
// dangling (a heap-use-after-free under the sanitize preset).
TEST(Ftl, ChannelReferenceSurvivesQueriesForOtherTenants) {
  Ftl ftl(sim::Geometry::small());
  ftl.set_tenant_channels(0, {1, 3});
  const Ftl& view = ftl;
  const auto& chs = view.tenant_channels(0);
  EXPECT_EQ(view.tenant_channels(5).size(), 8u);
  EXPECT_EQ(view.tenant_alloc_mode(9), AllocMode::kStatic);
  EXPECT_EQ(&view.tenant_channels(0), &chs);
  ASSERT_EQ(chs.size(), 2u);
  EXPECT_EQ(chs[0], 1u);
  EXPECT_EQ(chs[1], 3u);
}

TEST(Ftl, WriteInstallsMappingAndInvalidatesOld) {
  Ftl ftl(sim::Geometry::small());
  const auto load = idle_load();
  const sim::Ppn p1 = ftl.allocate_write(0, 42, load);
  EXPECT_EQ(ftl.mapping().lookup(0, 42), p1);
  EXPECT_TRUE(ftl.blocks().is_valid(p1));

  const sim::Ppn p2 = ftl.allocate_write(0, 42, load);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(ftl.mapping().lookup(0, 42), p2);
  EXPECT_FALSE(ftl.blocks().is_valid(p1));
  EXPECT_TRUE(ftl.blocks().is_valid(p2));
}

TEST(Ftl, WritesRespectChannelRestriction) {
  const sim::Geometry g = sim::Geometry::small();
  Ftl ftl(g);
  ftl.set_tenant_channels(0, {2, 5});
  const auto load = idle_load();
  for (std::uint64_t lpn = 0; lpn < 200; ++lpn) {
    const sim::PhysAddr a = g.decode(ftl.allocate_write(0, lpn, load));
    EXPECT_TRUE(a.channel == 2 || a.channel == 5);
  }
}

TEST(Ftl, StaticWritesStripeAcrossChannels) {
  const sim::Geometry g = sim::Geometry::small();
  Ftl ftl(g);
  const auto load = idle_load();
  std::set<std::uint32_t> channels;
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    channels.insert(g.decode(ftl.allocate_write(0, lpn, load)).channel);
  }
  EXPECT_EQ(channels.size(), 8u);
}

TEST(Ftl, ReadPrepopulatesUnmappedLpn) {
  const sim::Geometry g = sim::Geometry::small();
  Ftl ftl(g);
  const sim::Ppn p = ftl.translate_read(1, 7);
  EXPECT_NE(p, sim::kInvalidPpn);
  EXPECT_EQ(ftl.mapping().lookup(1, 7), p);
  EXPECT_TRUE(ftl.blocks().is_valid(p));
  // Second read of the same LPN returns the same location.
  EXPECT_EQ(ftl.translate_read(1, 7), p);
}

TEST(Ftl, ReadAfterWriteFindsWrittenLocation) {
  Ftl ftl(sim::Geometry::small());
  const sim::Ppn p = ftl.allocate_write(0, 5, idle_load());
  EXPECT_EQ(ftl.translate_read(0, 5), p);
}

TEST(Ftl, DynamicModeFollowsLoad) {
  const sim::Geometry g = sim::Geometry::small();
  Ftl ftl(g);
  ftl.set_tenant_alloc_mode(0, AllocMode::kDynamic);
  const auto load = make_load_view(
      [](std::uint32_t ch) -> Duration { return ch == 6 ? 0 : 10'000; },
      [](std::uint32_t) -> Duration { return 0; });
  for (std::uint64_t lpn = 0; lpn < 16; ++lpn) {
    EXPECT_EQ(g.decode(ftl.allocate_write(0, lpn, load)).channel, 6u);
  }
}

TEST(Ftl, GcThresholds) {
  sim::Geometry g = sim::Geometry::tiny();
  FtlConfig cfg;
  cfg.gc_trigger_free_blocks = 2;
  cfg.gc_target_free_blocks = 3;
  Ftl ftl(g, cfg);
  EXPECT_FALSE(ftl.needs_gc(0));  // 8 free blocks
  EXPECT_TRUE(ftl.gc_satisfied(0));
  // Consume blocks until trigger.
  const auto load = idle_load();
  ftl.set_tenant_channels(0, {0});
  std::uint64_t lpn = 0;
  while (!ftl.needs_gc(0)) {
    ftl.allocate_write(0, lpn++, load);
  }
  EXPECT_LE(ftl.blocks().free_blocks(0), 2u);
  EXPECT_FALSE(ftl.gc_satisfied(0));
}

TEST(Ftl, MigrationMovesLiveData) {
  Ftl ftl(sim::Geometry::tiny());
  const sim::Ppn src = ftl.allocate_write(0, 9, idle_load());
  const sim::Ppn dst = ftl.allocate_migration(0);
  ASSERT_NE(dst, sim::kInvalidPpn);
  EXPECT_TRUE(ftl.complete_migration(src, dst));
  EXPECT_EQ(ftl.mapping().lookup(0, 9), dst);
  EXPECT_FALSE(ftl.blocks().is_valid(src));
  EXPECT_TRUE(ftl.blocks().is_valid(dst));
}

TEST(Ftl, MigrationOfOverwrittenPageIsDiscarded) {
  Ftl ftl(sim::Geometry::tiny());
  const auto load = idle_load();
  const sim::Ppn src = ftl.allocate_write(0, 9, load);
  const sim::Ppn dst = ftl.allocate_migration(0);
  // Tenant overwrites LPN 9 while the migration is "in flight".
  const sim::Ppn fresh = ftl.allocate_write(0, 9, load);
  EXPECT_FALSE(ftl.complete_migration(src, dst));
  EXPECT_EQ(ftl.mapping().lookup(0, 9), fresh);
  EXPECT_FALSE(ftl.blocks().is_valid(dst));
}

TEST(Ftl, BadGcConfigRejected) {
  FtlConfig cfg;
  cfg.gc_trigger_free_blocks = 5;
  cfg.gc_target_free_blocks = 2;
  EXPECT_THROW(Ftl(sim::Geometry::tiny(), cfg), std::invalid_argument);
}

TEST(Ftl, DeviceFullThrows) {
  sim::Geometry g = sim::Geometry::tiny();
  Ftl ftl(g);
  const auto load = idle_load();
  // Unique LPNs, never overwritten, no GC driver -> eventually full.
  EXPECT_THROW(
      {
        for (std::uint64_t lpn = 0;; ++lpn) ftl.allocate_write(0, lpn, load);
      },
      DeviceFullError);
}

}  // namespace
}  // namespace ssdk::ftl
