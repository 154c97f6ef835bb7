#include "util/paged_vector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace ssdk::util {
namespace {

using Paged = PagedVector<std::uint64_t>;
constexpr std::size_t kPage = Paged::kPageSize;

Paged filled(std::size_t n) {
  Paged v;
  for (std::size_t i = 0; i < n; ++i) v.emplace_back() = 100 + i;
  return v;
}

TEST(PagedVector, IndexesAcrossPageBoundaries) {
  Paged v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.page_count(), 0u);
  for (std::size_t i = 0; i < 2 * kPage + 1; ++i) {
    std::uint64_t& slot = v.emplace_back();
    EXPECT_EQ(slot, 0u) << "emplace_back value-initializes";
    slot = 100 + i;
    EXPECT_EQ(v.size(), i + 1);
    EXPECT_EQ(v.page_count(), i / kPage + 1);
  }
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], 100 + i);
}

TEST(PagedVector, ElementsNeverMove) {
  Paged v;
  std::uint64_t* first = &v.emplace_back();
  std::uint64_t* last_of_page = nullptr;
  for (std::size_t i = 1; i < kPage; ++i) last_of_page = &v.emplace_back();
  for (std::size_t i = 0; i < 4 * kPage; ++i) v.emplace_back();
  EXPECT_EQ(first, &v[0]);
  EXPECT_EQ(last_of_page, &v[kPage - 1]);
}

TEST(PagedVector, CopyEqualsOriginalAndStaysIndependent) {
  Paged original = filled(kPage + 2);
  Paged copy(original);
  ASSERT_EQ(copy.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(copy[i], original[i]);
  }
  copy[1] = 7;
  copy.emplace_back() = 8;
  EXPECT_EQ(original[1], 101u);
  EXPECT_EQ(original.size(), kPage + 2);
  original[kPage] = 9;
  EXPECT_EQ(copy[kPage], 100 + kPage);

  Paged assigned;
  assigned = original;
  EXPECT_EQ(assigned.size(), kPage + 2);
  EXPECT_EQ(assigned[kPage], 9u);
  assigned[0] = 1;
  EXPECT_EQ(original[0], 100u);
}

TEST(PagedVector, CopyAllocatesOnlyPagesInUse) {
  Paged v = filled(2 * kPage + 1);  // three pages
  v.clear();
  EXPECT_EQ(v.page_count(), 3u) << "clear keeps the pages for reuse";
  v.emplace_back() = 1;
  const Paged copy(v);
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.page_count(), 1u);
  EXPECT_EQ(copy[0], 1u);
  EXPECT_EQ(Paged(Paged{}).page_count(), 0u);
}

TEST(PagedVector, MovedFromIsEmptyAndUsable) {
  Paged v = filled(kPage + 1);
  Paged moved(std::move(v));
  EXPECT_EQ(moved.size(), kPage + 1);
  EXPECT_EQ(moved[kPage], 100 + kPage);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)
  v.emplace_back() = 5;
  EXPECT_EQ(v[0], 5u);
  Paged assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), kPage + 1);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(PagedVector, AssignAndClear) {
  Paged v = filled(5);
  v.assign(kPage + 3, 42);
  ASSERT_EQ(v.size(), kPage + 3);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], 42u);
  v.assign(2, 3);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 3u);
  v.clear();
  EXPECT_TRUE(v.empty());
  // A cleared slot comes back value-initialized, not with its old value.
  EXPECT_EQ(v.emplace_back(), 0u);
  v.assign(0, 5);
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace ssdk::util
