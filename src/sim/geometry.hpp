// Physical geometry of the simulated SSD and the physical-address codec.
//
// Hierarchy (paper Figure 1): channel -> chip -> plane -> block -> page.
// Dies are folded into chips (the paper's Table I parameterizes chips and
// planes directly). Physical page numbers (PPNs) are flat indices over the
// whole device; PhysAddr is the unpacked form.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>

namespace ssdk::sim {

/// Flat physical page number over the entire device.
using Ppn = std::uint64_t;
inline constexpr Ppn kInvalidPpn = ~Ppn{0};

/// A PPN as the L2P tables store it. Geometry::validate keeps every
/// device below kInvalidPpn32 pages, so each valid PPN fits and the
/// all-ones value stays free for the invalid marker.
using Ppn32 = std::uint32_t;
inline constexpr Ppn32 kInvalidPpn32 = ~Ppn32{0};

struct PhysAddr {
  std::uint32_t channel = 0;
  std::uint32_t chip = 0;   ///< chip index within the channel
  std::uint32_t plane = 0;  ///< plane index within the chip
  std::uint32_t block = 0;  ///< block index within the plane
  std::uint32_t page = 0;   ///< page index within the block

  friend bool operator==(const PhysAddr&, const PhysAddr&) = default;
};

struct Geometry {
  std::uint32_t channels = 8;
  std::uint32_t chips_per_channel = 2;
  std::uint32_t planes_per_chip = 4;
  std::uint32_t blocks_per_plane = 4096;
  std::uint32_t pages_per_block = 128;
  std::uint32_t page_size_bytes = 16 * 1024;

  /// Exactly Table I of the paper: 8 channels x 2 chips x 4 planes x
  /// 4096 blocks x 128 pages x 16 KB = 512 GB.
  static Geometry paper();

  /// Same channel/chip/plane fan-out as the paper but fewer blocks, for
  /// fast tests and dataset-generation sweeps. Contention behaviour is
  /// unchanged (it depends on channel/chip counts and timing, not on how
  /// many blocks a plane holds).
  static Geometry small();

  /// Tiny geometry that fills quickly — used by GC/wear-leveling tests.
  static Geometry tiny();

  std::uint32_t total_chips() const { return channels * chips_per_channel; }
  std::uint32_t planes_per_channel() const {
    return chips_per_channel * planes_per_chip;
  }
  std::uint64_t total_planes() const {
    return static_cast<std::uint64_t>(total_chips()) * planes_per_chip;
  }
  std::uint64_t total_blocks() const {
    return total_planes() * blocks_per_plane;
  }
  std::uint64_t pages_per_plane() const {
    return static_cast<std::uint64_t>(blocks_per_plane) * pages_per_block;
  }
  std::uint64_t pages_per_chip() const {
    return pages_per_plane() * planes_per_chip;
  }
  std::uint64_t total_pages() const {
    return pages_per_chip() * total_chips();
  }
  std::uint64_t capacity_bytes() const {
    return total_pages() * page_size_bytes;
  }

  /// Global chip index in [0, total_chips()).
  std::uint32_t chip_id(std::uint32_t channel, std::uint32_t chip) const {
    return channel * chips_per_channel + chip;
  }
  /// Global plane index in [0, total_planes()).
  std::uint64_t plane_id(const PhysAddr& a) const {
    return static_cast<std::uint64_t>(chip_id(a.channel, a.chip)) *
               planes_per_chip +
           a.plane;
  }
  /// Global block index in [0, total_blocks()).
  std::uint64_t block_id(const PhysAddr& a) const {
    return plane_id(a) * blocks_per_plane + a.block;
  }

  Ppn encode(const PhysAddr& a) const {
    assert(a.channel < channels);
    assert(a.chip < chips_per_channel);
    assert(a.plane < planes_per_chip);
    assert(a.block < blocks_per_plane);
    assert(a.page < pages_per_block);
    return (((static_cast<Ppn>(chip_id(a.channel, a.chip)) *
                  planes_per_chip +
              a.plane) *
                 blocks_per_plane +
             a.block) *
                pages_per_block +
            a.page);
  }

  /// Inline with a shift/mask fast path: every stock geometry (paper,
  /// small, tiny) has power-of-two dimensions, and decode sits on the
  /// per-page-op device hot path where four hardware divides are
  /// measurable. Falls back to the general divide chain for odd shapes.
  /// The power-of-two tests are spelled out: at the baseline x86-64 ISA,
  /// std::has_single_bit compiles to a libgcc popcount call.
  PhysAddr decode(Ppn ppn) const {
    assert(ppn < total_pages());
    PhysAddr a;
    if (pow2(pages_per_block) && pow2(blocks_per_plane) &&
        pow2(planes_per_chip) && pow2(chips_per_channel)) {
      const int page_bits = std::countr_zero(pages_per_block);
      const int block_bits = std::countr_zero(blocks_per_plane);
      const int plane_bits = std::countr_zero(planes_per_chip);
      const int chip_bits = std::countr_zero(chips_per_channel);
      a.page = static_cast<std::uint32_t>(ppn) & (pages_per_block - 1);
      ppn >>= page_bits;
      a.block = static_cast<std::uint32_t>(ppn) & (blocks_per_plane - 1);
      ppn >>= block_bits;
      a.plane = static_cast<std::uint32_t>(ppn) & (planes_per_chip - 1);
      ppn >>= plane_bits;
      a.chip = static_cast<std::uint32_t>(ppn) & (chips_per_channel - 1);
      a.channel = static_cast<std::uint32_t>(ppn >> chip_bits);
      return a;
    }
    a.page = static_cast<std::uint32_t>(ppn % pages_per_block);
    ppn /= pages_per_block;
    a.block = static_cast<std::uint32_t>(ppn % blocks_per_plane);
    ppn /= blocks_per_plane;
    a.plane = static_cast<std::uint32_t>(ppn % planes_per_chip);
    ppn /= planes_per_chip;
    const auto chip = static_cast<std::uint32_t>(ppn);
    a.channel = chip / chips_per_channel;
    a.chip = chip % chips_per_channel;
    return a;
  }

  /// Throws std::invalid_argument when any dimension is zero or the device
  /// holds more than kInvalidPpn32 pages: then a PPN, or a product of
  /// dimensions such as total_chips(), would overflow its 32-bit field.
  void validate() const;

  std::string describe() const;

  friend bool operator==(const Geometry&, const Geometry&) = default;

 private:
  /// Power-of-two test for a dimension validate() has made non-zero.
  static constexpr bool pow2(std::uint32_t x) { return (x & (x - 1)) == 0; }
};

}  // namespace ssdk::sim
