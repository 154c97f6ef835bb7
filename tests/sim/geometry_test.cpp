#include "sim/geometry.hpp"

#include <gtest/gtest.h>

namespace ssdk::sim {
namespace {

TEST(Geometry, PaperMatchesTableI) {
  const Geometry g = Geometry::paper();
  EXPECT_EQ(g.channels, 8u);
  EXPECT_EQ(g.chips_per_channel, 2u);
  EXPECT_EQ(g.planes_per_chip, 4u);
  EXPECT_EQ(g.blocks_per_plane, 4096u);
  EXPECT_EQ(g.pages_per_block, 128u);
  EXPECT_EQ(g.page_size_bytes, 16u * 1024);
  EXPECT_EQ(g.capacity_bytes(), 512ULL * 1024 * 1024 * 1024);
}

TEST(Geometry, DerivedCounts) {
  const Geometry g = Geometry::small();
  EXPECT_EQ(g.total_chips(), 16u);
  EXPECT_EQ(g.total_planes(), 64u);
  EXPECT_EQ(g.planes_per_channel(), 8u);
  EXPECT_EQ(g.pages_per_plane(),
            static_cast<std::uint64_t>(g.blocks_per_plane) *
                g.pages_per_block);
  EXPECT_EQ(g.total_pages(), g.pages_per_plane() * 64);
}

TEST(Geometry, EncodeDecodeRoundTrip) {
  const Geometry g = Geometry::small();
  for (std::uint32_t ch = 0; ch < g.channels; ch += 3) {
    for (std::uint32_t chip = 0; chip < g.chips_per_channel; ++chip) {
      for (std::uint32_t plane = 0; plane < g.planes_per_chip; plane += 2) {
        const PhysAddr a{ch, chip, plane, 17, 42};
        EXPECT_EQ(g.decode(g.encode(a)), a);
      }
    }
  }
}

TEST(Geometry, EncodeDecodeExhaustiveOnTiny) {
  const Geometry g = Geometry::tiny();
  for (Ppn p = 0; p < g.total_pages(); ++p) {
    EXPECT_EQ(g.encode(g.decode(p)), p);
  }
}

TEST(Geometry, PpnsAreDenseAndUnique) {
  const Geometry g = Geometry::tiny();
  std::vector<bool> seen(g.total_pages(), false);
  for (std::uint32_t ch = 0; ch < g.channels; ++ch) {
    for (std::uint32_t chip = 0; chip < g.chips_per_channel; ++chip) {
      for (std::uint32_t pl = 0; pl < g.planes_per_chip; ++pl) {
        for (std::uint32_t b = 0; b < g.blocks_per_plane; ++b) {
          for (std::uint32_t pg = 0; pg < g.pages_per_block; ++pg) {
            const Ppn p = g.encode({ch, chip, pl, b, pg});
            ASSERT_LT(p, seen.size());
            ASSERT_FALSE(seen[p]);
            seen[p] = true;
          }
        }
      }
    }
  }
}

TEST(Geometry, PlaneAndBlockIds) {
  const Geometry g = Geometry::small();
  const PhysAddr a{3, 1, 2, 7, 0};
  EXPECT_EQ(g.chip_id(3, 1), 7u);
  EXPECT_EQ(g.plane_id(a), 7u * 4 + 2);
  EXPECT_EQ(g.block_id(a), (7ULL * 4 + 2) * g.blocks_per_plane + 7);
}

// Geometry::validate rejects zero dimensions, and keeps every PPN below
// the L2P tables' 32-bit invalid marker, which also keeps the uint32
// products such as total_chips() from wrapping.
TEST(Geometry, RejectsInvalidShapes) {
  struct Case {
    const char* name;
    Geometry geometry;
  };
  const auto shape = [](std::uint32_t channels, std::uint32_t chips,
                        std::uint32_t planes, std::uint32_t blocks,
                        std::uint32_t pages) {
    Geometry g;
    g.channels = channels;
    g.chips_per_channel = chips;
    g.planes_per_chip = planes;
    g.blocks_per_plane = blocks;
    g.pages_per_block = pages;
    return g;
  };
  Geometry zero_page_size = Geometry::small();
  zero_page_size.page_size_bytes = 0;
  const Case rejected[] = {
      {"zero channels", shape(0, 2, 4, 256, 64)},
      {"zero chips", shape(8, 0, 4, 256, 64)},
      {"zero planes", shape(8, 2, 0, 256, 64)},
      {"zero blocks", shape(8, 2, 4, 0, 64)},
      {"zero pages", shape(8, 2, 4, 256, 0)},
      {"zero page size", zero_page_size},
      // 2^32 pages: the first page count whose last PPN is the marker.
      {"2^32 pages", shape(16, 16, 16, 1024, 1024)},
      {"2^32 pages in one plane", shape(1, 1, 1, 65536, 65536)},
      // channels x chips wraps total_chips() to 0 in 32 bits.
      {"total_chips overflow", shape(65536, 65536, 1, 1, 1)},
      {"every dimension at its maximum",
       shape(~0u, ~0u, ~0u, ~0u, ~0u)},
  };
  for (const Case& c : rejected) {
    EXPECT_THROW(c.geometry.validate(), std::invalid_argument) << c.name;
  }

  // 3 x 5 x 17 x 257 x 65537 = 2^32 - 1 pages: the largest device that
  // fits, whose last PPN is one below the marker.
  const Geometry largest = shape(3, 5, 17, 257, 65537);
  EXPECT_NO_THROW(largest.validate());
  EXPECT_EQ(largest.total_pages(), std::uint64_t{kInvalidPpn32});
  const PhysAddr last{2, 4, 16, 256, 65536};
  EXPECT_EQ(largest.encode(last), Ppn{kInvalidPpn32} - 1);
  EXPECT_EQ(largest.decode(kInvalidPpn32 - 1), last);
  for (const Geometry& stock :
       {Geometry::paper(), Geometry::small(), Geometry::tiny()}) {
    EXPECT_NO_THROW(stock.validate()) << stock.describe();
  }
}

TEST(Geometry, DescribeMentionsCapacity) {
  EXPECT_NE(Geometry::paper().describe().find("512"), std::string::npos);
}

}  // namespace
}  // namespace ssdk::sim
