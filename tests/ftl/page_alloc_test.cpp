#include "ftl/page_alloc.hpp"

#include <gtest/gtest.h>

#include <set>

#include "load_view_helper.hpp"

namespace ssdk::ftl {
namespace {

const sim::Geometry g = sim::Geometry::small();

TEST(StaticPlace, StripesChannelsFirst) {
  const std::vector<std::uint32_t> channels{0, 1, 2, 3};
  // Consecutive LPNs land on consecutive channels.
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    const PlaneTarget t = static_place(g, channels, lpn);
    EXPECT_EQ(t.channel, channels[lpn]);
    EXPECT_EQ(t.chip, 0u);
    EXPECT_EQ(t.plane, 0u);
  }
  // After one channel round, the chip advances.
  EXPECT_EQ(static_place(g, channels, 4).chip, 1u);
  // After channels x chips, the plane advances.
  EXPECT_EQ(static_place(g, channels, 8).plane, 1u);
}

TEST(StaticPlace, StripesEverySetSize) {
  // On 8 channels the strategy space yields channel sets of every size
  // from 1 to 8; the power-of-two sizes take the shift/mask path and the
  // others the divide path, and both must stripe channel, then chip, then
  // plane.
  for (std::uint32_t n = 1; n <= g.channels; ++n) {
    std::vector<std::uint32_t> channels;
    for (std::uint32_t c = 0; c < n; ++c) channels.push_back(g.channels - 1 - c);
    const std::uint64_t round = std::uint64_t{n} * g.planes_per_channel();
    for (std::uint64_t lpn = 0; lpn < 3 * round; ++lpn) {
      const PlaneTarget t = static_place(g, channels, lpn);
      EXPECT_EQ(t.channel, channels[lpn % n]) << n << " channels, lpn " << lpn;
      EXPECT_EQ(t.chip, lpn / n % g.chips_per_channel)
          << n << " channels, lpn " << lpn;
      EXPECT_EQ(t.plane, lpn / (n * g.chips_per_channel) % g.planes_per_chip)
          << n << " channels, lpn " << lpn;
    }
  }
}

TEST(StaticPlace, RespectsRestrictedChannelSet) {
  const std::vector<std::uint32_t> channels{5, 7};
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    const PlaneTarget t = static_place(g, channels, lpn);
    EXPECT_TRUE(t.channel == 5 || t.channel == 7);
  }
}

TEST(StaticPlace, DeterministicInLpn) {
  const std::vector<std::uint32_t> channels{0, 2, 4};
  const PlaneTarget a = static_place(g, channels, 12345);
  const PlaneTarget b = static_place(g, channels, 12345);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.chip, b.chip);
  EXPECT_EQ(a.plane, b.plane);
}

TEST(StaticPlace, PlaneIdMatchesGeometry) {
  const std::vector<std::uint32_t> channels{0, 1, 2, 3, 4, 5, 6, 7};
  const PlaneTarget t = static_place(g, channels, 999);
  const sim::PhysAddr a{t.channel, t.chip, t.plane, 0, 0};
  EXPECT_EQ(t.plane_id(g), g.plane_id(a));
}

TEST(DynamicPlace, PicksLeastBackloggedChannel) {
  const std::vector<std::uint32_t> channels{0, 1, 2};
  const auto load = make_load_view(
      [](std::uint32_t ch) -> Duration { return ch == 1 ? 0 : 1000; },
      [](std::uint32_t) -> Duration { return 0; });
  std::uint64_t rr = 0;
  const PlaneTarget t = dynamic_place(g, channels, load, rr);
  EXPECT_EQ(t.channel, 1u);
}

TEST(DynamicPlace, PicksLeastBackloggedChipOnChannel) {
  const std::vector<std::uint32_t> channels{3};
  const auto load = make_load_view(
      [](std::uint32_t) -> Duration { return 0; },
      [](std::uint32_t chip) -> Duration {
        // Global chips 6 and 7 live on channel 3; make chip 7 idle.
        return chip == 7 ? 0 : 500;
      });
  std::uint64_t rr = 0;
  const PlaneTarget t = dynamic_place(g, channels, load, rr);
  EXPECT_EQ(t.channel, 3u);
  EXPECT_EQ(t.chip, 1u);  // chip 7 = channel 3, chip-in-channel 1
}

TEST(DynamicPlace, RotatesPlanes) {
  const std::vector<std::uint32_t> channels{0};
  const auto load = make_load_view(
      [](std::uint32_t) -> Duration { return 0; },
      [](std::uint32_t) -> Duration { return 0; });
  std::uint64_t rr = 0;
  std::set<std::uint32_t> planes;
  for (int i = 0; i < 4; ++i) {
    planes.insert(dynamic_place(g, channels, load, rr).plane);
  }
  EXPECT_EQ(planes.size(), g.planes_per_chip);
}

TEST(DynamicPlace, TieBreaksTowardLowerChannel) {
  const std::vector<std::uint32_t> channels{2, 4, 6};
  const auto load = make_load_view(
      [](std::uint32_t) -> Duration { return 7; },
      [](std::uint32_t) -> Duration { return 7; });
  std::uint64_t rr = 0;
  EXPECT_EQ(dynamic_place(g, channels, load, rr).channel, 2u);
}

}  // namespace
}  // namespace ssdk::ftl
