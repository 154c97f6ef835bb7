// Randomized differential test: BlockManager, which keeps state only for
// opened blocks, against the dense manager it replaced (DenseBlockManager,
// tests/ftl/dense_block_manager.hpp). Both are driven with the same seeded
// interleavings of allocation, validity, GC-style migration and erase,
// retirement (also of never-opened blocks), fail counters and queries, and
// must return the same PPNs, victims, counts and wear statistics at every
// step. A copy of the sparse manager taken mid-sequence is driven on with
// the same operations and must stay identical as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "dense_block_manager.hpp"
#include "ftl/block_manager.hpp"
#include "sim/geometry.hpp"
#include "util/rng.hpp"

namespace ssdk::ftl {
namespace {

void expect_same_wear(const WearStats& a, const WearStats& b) {
  EXPECT_EQ(a.min_erases, b.min_erases);
  EXPECT_EQ(a.max_erases, b.max_erases);
  EXPECT_EQ(a.total_erases, b.total_erases);
  EXPECT_EQ(a.mean_erases, b.mean_erases);
}

/// Every per-block and per-plane answer, plus page validity and owners.
void expect_same_state(const BlockManager& sparse,
                       const DenseBlockManager& dense) {
  const sim::Geometry& g = dense.geometry();
  std::vector<sim::Ppn> a, b;
  for (std::uint64_t plane = 0; plane < g.total_planes(); ++plane) {
    ASSERT_EQ(sparse.free_blocks(plane), dense.free_blocks(plane));
    ASSERT_EQ(sparse.free_pages(plane), dense.free_pages(plane));
    ASSERT_EQ(sparse.plane_wear_gap(plane), dense.plane_wear_gap(plane));
    ASSERT_EQ(sparse.select_victim(plane), dense.select_victim(plane));
    ASSERT_EQ(sparse.coldest_full_block(plane),
              dense.coldest_full_block(plane));
    for (std::uint32_t blk = 0; blk < g.blocks_per_plane; ++blk) {
      ASSERT_EQ(sparse.block_state(plane, blk), dense.block_state(plane, blk))
          << "plane " << plane << " block " << blk;
      ASSERT_EQ(sparse.valid_count(plane, blk), dense.valid_count(plane, blk));
      ASSERT_EQ(sparse.erase_count(plane, blk), dense.erase_count(plane, blk));
      sparse.valid_pages_into(plane, blk, a);
      dense.valid_pages_into(plane, blk, b);
      ASSERT_EQ(a, b);
      for (const sim::Ppn p : a) {
        ASSERT_EQ(sparse.owner(p).tenant, dense.owner(p).tenant);
        ASSERT_EQ(sparse.owner(p).lpn, dense.owner(p).lpn);
      }
    }
  }
  expect_same_wear(sparse.wear_stats(), dense.wear_stats());
  ASSERT_EQ(sparse.total_valid_pages(), dense.total_valid_pages());
  ASSERT_EQ(sparse.retired_blocks(), dense.retired_blocks());
  EXPECT_NO_THROW(sparse.check_invariants());
}

/// Drives the dense oracle, the sparse manager and (from the midpoint on)
/// a copy of the sparse manager with one operation stream.
class Differ {
 public:
  Differ(const sim::Geometry& g, std::uint64_t seed)
      : geom_(g), rng_(seed), sparse_(g), dense_(g) {}

  /// `hot_planes` > 0 concentrates writes on that many planes, so large
  /// geometries reach GC within a test's budget.
  void run(int steps, std::uint64_t hot_planes, int full_check_every) {
    for (int step = 0; step < steps; ++step) {
      if (step == steps / 2) fork_.emplace(sparse_);
      one_step(hot_planes);
      if (::testing::Test::HasFatalFailure()) return;
      if ((step + 1) % full_check_every == 0) check_all();
    }
    check_all();
  }

 private:
  /// Apply `f` to every sparse manager and the dense one and require that
  /// all return the same value.
  template <typename F>
  auto all(F f) {
    const auto expected = f(dense_);
    EXPECT_EQ(f(sparse_), expected);
    if (fork_) {
      EXPECT_EQ(f(*fork_), expected);
    }
    return expected;
  }

  void check_all() {
    expect_same_state(sparse_, dense_);
    if (fork_) expect_same_state(*fork_, dense_);
  }

  std::uint64_t pick_plane(std::uint64_t hot_planes) {
    const std::uint64_t planes = geom_.total_planes();
    if (hot_planes > 0 && rng_.bernoulli(0.95)) {
      return rng_.next_below(hot_planes) * (planes / hot_planes);
    }
    return rng_.next_below(planes);
  }

  void one_step(std::uint64_t hot_planes) {
    const std::uint64_t plane = pick_plane(hot_planes);
    const auto block =
        static_cast<std::uint32_t>(rng_.next_below(geom_.blocks_per_plane));
    const std::uint64_t action = rng_.next_below(1000);
    if (action < 550) {
      allocate_and_write(plane);
    } else if (action < 800) {
      if (written_.empty()) return;
      const sim::Ppn p = written_[rng_.next_below(written_.size())];
      all([p](auto& m) {
        m.invalidate(p);
        return m.is_valid(p);
      });
    } else if (action < 900) {
      collect(plane);
    } else if (action < 902) {
      all([plane, block](auto& m) {
        if (m.block_state(plane, block) == BlockState::kRetired) return false;
        m.retire_block(plane, block);
        return true;
      });
    } else if (action < 930) {
      all([plane, block](auto& m) {
        return m.record_program_fail(plane, block);
      });
    } else if (action < 950) {
      all([plane, block](auto& m) {
        return m.record_erase_fail(plane, block);
      });
    } else if (action < 970) {
      all([plane](auto& m) { return m.coldest_full_block(plane); });
      all([plane](auto& m) { return m.plane_wear_gap(plane); });
    } else {
      all([plane](auto& m) { return m.free_pages(plane); });
      all([](auto& m) { return m.total_valid_pages(); });
      all([plane, block](auto& m) {
        std::vector<sim::Ppn> out;
        m.valid_pages_into(plane, block, out);
        return out;
      });
    }
  }

  void allocate_and_write(std::uint64_t plane) {
    const auto ppn = all([plane](auto& m) { return m.allocate_page(plane); });
    if (!ppn) return;
    // Most programs complete; a few model a failed program whose page
    // never becomes valid.
    if (rng_.bernoulli(0.97)) {
      const auto tenant = static_cast<sim::TenantId>(rng_.next_below(4));
      const std::uint64_t lpn = rng_.next_below(1u << 20);
      all([&](auto& m) {
        m.mark_valid(*ppn, tenant, lpn);
        return m.owner(*ppn).lpn;
      });
    }
    if (written_.size() < 4096) {
      written_.push_back(*ppn);
    } else {
      written_[rng_.next_below(written_.size())] = *ppn;
    }
  }

  /// One GC round: migrate the victim's valid pages within the plane and
  /// erase it, as the device's GC does.
  void collect(std::uint64_t plane) {
    const auto victim =
        all([plane](auto& m) { return m.select_victim(plane); });
    if (!victim) return;
    const auto pages = all([&](auto& m) {
      std::vector<sim::Ppn> out;
      m.valid_pages_into(plane, *victim, out);
      return out;
    });
    for (const sim::Ppn src : pages) {
      const auto dst =
          all([plane](auto& m) { return m.allocate_page(plane); });
      if (!dst) return;  // out of room: leave the victim for a later round
      all([&](auto& m) {
        const PageOwner who = m.owner(src);
        m.invalidate(src);
        m.mark_valid(*dst, who.tenant, who.lpn);
        return who.lpn;
      });
    }
    all([&](auto& m) {
      m.erase_block(plane, *victim);
      return m.erase_count(plane, *victim);
    });
  }

  sim::Geometry geom_;
  Rng rng_;
  BlockManager sparse_;
  DenseBlockManager dense_;
  std::optional<BlockManager> fork_;
  std::vector<sim::Ppn> written_;
};

TEST(BlockManagerDiff, TinyGeometryRandomInterleavings) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differ differ(sim::Geometry::tiny(), seed);
    differ.run(20000, 0, 50);
    if (HasFatalFailure()) return;
  }
}

TEST(BlockManagerDiff, SmallGeometryRandomInterleavings) {
  // Writes concentrate on two planes, so those fill and cycle through GC
  // while the other planes stay mostly never-opened.
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differ differ(sim::Geometry::small(), seed);
    differ.run(60000, 2, 20000);
    if (HasFatalFailure()) return;
  }
}

TEST(BlockManagerDiff, RetiringAndFailingNeverOpenedBlocks) {
  // Blocks far above the cursor are retired or record failures before any
  // block of the plane was opened; allocation must then skip exactly the
  // retired ones and open the rest in the dense manager's order.
  const sim::Geometry g = sim::Geometry::small();
  BlockManager sparse(g);
  DenseBlockManager dense(g);
  sparse.retire_block(0, 200);
  dense.retire_block(0, 200);
  sparse.retire_block(1, 0);
  dense.retire_block(1, 0);
  EXPECT_EQ(sparse.record_program_fail(0, 100),
            dense.record_program_fail(0, 100));
  EXPECT_EQ(sparse.record_erase_fail(2, 255), dense.record_erase_fail(2, 255));
  expect_same_state(sparse, dense);
  for (std::uint64_t plane = 0; plane < 3; ++plane) {
    while (true) {
      const auto a = sparse.allocate_page(plane);
      ASSERT_EQ(a, dense.allocate_page(plane));
      if (!a) break;
    }
  }
  expect_same_state(sparse, dense);
  EXPECT_EQ(sparse.free_blocks(0), 0u);
  EXPECT_EQ(sparse.block_state(0, 200), BlockState::kRetired);
}

TEST(BlockManagerDiff, ErasedBlocksBesideNeverOpenedOnes) {
  // Every opened block of plane 0 is erased while its other blocks were
  // never opened: wear statistics must still count those at zero erases,
  // and the next block opened is a never-used one, not an erased one.
  const sim::Geometry g = sim::Geometry::tiny();
  BlockManager sparse(g);
  DenseBlockManager dense(g);
  for (std::uint32_t i = 0; i < 2 * g.pages_per_block; ++i) {
    const auto a = sparse.allocate_page(0);
    ASSERT_EQ(a, dense.allocate_page(0));
    sparse.mark_valid(*a, 0, i);
    dense.mark_valid(*a, 0, i);
    sparse.invalidate(*a);
    dense.invalidate(*a);
  }
  for (const std::uint32_t blk : {0u, 1u}) {
    sparse.erase_block(0, blk);
    dense.erase_block(0, blk);
  }
  expect_same_state(sparse, dense);
  EXPECT_EQ(sparse.wear_stats().min_erases, 0u);
  EXPECT_EQ(sparse.plane_wear_gap(0), 1u);
  const auto next = sparse.allocate_page(0);
  ASSERT_EQ(next, dense.allocate_page(0));
  EXPECT_EQ(*next / g.pages_per_block, 2u);
  expect_same_state(sparse, dense);
}

}  // namespace
}  // namespace ssdk::ftl
