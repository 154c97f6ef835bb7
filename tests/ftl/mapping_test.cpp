#include "ftl/mapping.hpp"

#include <gtest/gtest.h>

namespace ssdk::ftl {
namespace {

TEST(Mapping, UnmappedReturnsInvalid) {
  MappingTable m;
  EXPECT_EQ(m.lookup(0, 0), sim::kInvalidPpn);
  EXPECT_EQ(m.lookup(5, 1000), sim::kInvalidPpn);
}

TEST(Mapping, UpdateAndLookup) {
  MappingTable m;
  EXPECT_EQ(m.update(0, 10, 42), sim::kInvalidPpn);
  EXPECT_EQ(m.lookup(0, 10), 42u);
  EXPECT_EQ(m.update(0, 10, 43), 42u);  // returns old
  EXPECT_EQ(m.lookup(0, 10), 43u);
}

TEST(Mapping, TenantsAreIsolated) {
  MappingTable m;
  m.update(0, 7, 100);
  m.update(1, 7, 200);
  EXPECT_EQ(m.lookup(0, 7), 100u);
  EXPECT_EQ(m.lookup(1, 7), 200u);
}

TEST(Mapping, MappedCountTracksTransitions) {
  MappingTable m;
  EXPECT_EQ(m.mapped_count(0), 0u);
  m.update(0, 1, 10);
  m.update(0, 2, 20);
  EXPECT_EQ(m.mapped_count(0), 2u);
  m.update(0, 1, 11);  // overwrite: count unchanged
  EXPECT_EQ(m.mapped_count(0), 2u);
  m.erase(0, 1);
  EXPECT_EQ(m.mapped_count(0), 1u);
  EXPECT_EQ(m.lookup(0, 1), sim::kInvalidPpn);
}

TEST(Mapping, SparseLpnGrowth) {
  MappingTable m;
  m.update(0, 1'000'000, 5);
  EXPECT_EQ(m.lookup(0, 1'000'000), 5u);
  EXPECT_EQ(m.lookup(0, 999'999), sim::kInvalidPpn);
}

TEST(Mapping, LargestValidPpnRoundTrips) {
  // Entries are stored in 32 bits; the largest PPN a validated geometry
  // can produce sits just below the 32-bit invalid marker.
  MappingTable m;
  const sim::Ppn largest = sim::kInvalidPpn32 - 1;
  EXPECT_EQ(m.update(0, 3, largest), sim::kInvalidPpn);
  EXPECT_EQ(m.lookup(0, 3), largest);
  EXPECT_EQ(m.mapped_count(0), 1u);
  EXPECT_EQ(m.lookup(0, 4), sim::kInvalidPpn);
  EXPECT_EQ(m.erase(0, 3), largest);
  EXPECT_EQ(m.lookup(0, 3), sim::kInvalidPpn);
  EXPECT_EQ(m.mapped_count(0), 0u);
}

TEST(Mapping, SparseWriteGrowsSpanInWholeSteps) {
  constexpr std::uint64_t kStep = MappingTable::kSpanStep;
  MappingTable m;
  m.update(0, 0, 1);
  EXPECT_EQ(m.table_span(0), kStep);
  m.update(0, kStep - 1, 2);
  EXPECT_EQ(m.table_span(0), kStep);
  m.update(0, kStep, 3);
  EXPECT_EQ(m.table_span(0), 2 * kStep);
  m.update(0, 5000, 4);
  EXPECT_EQ(m.table_span(0), 5 * kStep);
  m.update(3, 1'000'000, 5);
  EXPECT_EQ(m.table_span(3), 977 * kStep);  // ceil(1'000'001 / 1024) steps
  EXPECT_EQ(m.table_span(1), 0u);
  EXPECT_EQ(m.table_span(2), 0u);
  EXPECT_EQ(m.mapped_count(0), 4u);
  EXPECT_EQ(m.mapped_count(3), 1u);
  // A write below the span never grows it.
  m.update(3, 17, 6);
  EXPECT_EQ(m.table_span(3), 977 * kStep);
  EXPECT_NO_THROW(m.check_invariants());
}

TEST(Mapping, RisingLpnsReallocateLogarithmically) {
  // A sequential stream crosses into a new step 1024 times. Reserving
  // each span exactly would copy the table every time; growing by at
  // least an eighth copies it 46 times and keeps the slack bounded.
  constexpr std::uint64_t kStep = MappingTable::kSpanStep;
  MappingTable m;
  std::uint64_t reallocations = 0;
  std::uint64_t capacity = 0;
  for (std::uint64_t k = 0; k < 1024; ++k) {
    m.update(0, k * kStep, k);
    const std::uint64_t span = m.table_span(0);
    ASSERT_EQ(span, (k + 1) * kStep);
    ASSERT_GE(m.table_capacity(0), span);
    ASSERT_LT(m.table_capacity(0), span + span / 8 + kStep);
    if (m.table_capacity(0) != capacity) ++reallocations;
    capacity = m.table_capacity(0);
  }
  EXPECT_LE(reallocations, 48u);
  // A first write far out reserves exactly its span, and a copy (what
  // Ssd::fork() takes) carries no slack.
  m.update(1, 1'000'000, 1);
  EXPECT_EQ(m.table_capacity(1), m.table_span(1));
  const MappingTable copy = m;
  EXPECT_EQ(copy.table_capacity(0), copy.table_span(0));
  EXPECT_EQ(copy.lookup(0, 1023 * kStep), 1023u);
}

TEST(Mapping, ClearKeepsSpans) {
  MappingTable m;
  m.update(0, 10, 1);
  m.update(1, 3000, 2);
  const std::uint64_t span0 = m.table_span(0);
  const std::uint64_t span1 = m.table_span(1);
  m.clear();
  EXPECT_EQ(m.table_span(0), span0);
  EXPECT_EQ(m.table_span(1), span1);
  EXPECT_EQ(m.lookup(0, 10), sim::kInvalidPpn);
  EXPECT_EQ(m.lookup(1, 3000), sim::kInvalidPpn);
  EXPECT_EQ(m.mapped_count(0), 0u);
  EXPECT_EQ(m.mapped_count(1), 0u);
  EXPECT_NO_THROW(m.check_invariants());
}

TEST(Mapping, HugeTenantIdRejected) {
  MappingTable m;
  EXPECT_THROW(m.update(100'000, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ssdk::ftl
