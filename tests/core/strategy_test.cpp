#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>

namespace ssdk::core {
namespace {

TEST(StrategySpace, TwoTenantsHasEightStrategies) {
  const auto space = StrategySpace::for_tenants(2);
  EXPECT_EQ(space.size(), 8u);  // paper Section IV.C
  EXPECT_EQ(space.at(0).name(), "Shared");
  EXPECT_EQ(space.at(1).name(), "7:1");
  EXPECT_EQ(space.at(7).name(), "1:7");
}

TEST(StrategySpace, FourTenantsHasFortyTwoStrategies) {
  const auto space = StrategySpace::for_tenants(4);
  EXPECT_EQ(space.size(), 42u);  // paper: 8 + 34
  // Contains the paper's examples...
  EXPECT_NO_THROW(space.index_of("5:1:1:1"));
  EXPECT_NO_THROW(space.index_of("4:2:1:1"));
  EXPECT_NO_THROW(space.index_of("3:3:1:1"));
  EXPECT_NO_THROW(space.index_of("3:2:2:1"));
  // ...but not 2:2:2:2, which the paper folds into Isolated.
  EXPECT_THROW(space.index_of("2:2:2:2"), std::out_of_range);
}

TEST(StrategySpace, AllNamesUnique) {
  const auto space = StrategySpace::for_tenants(4);
  std::set<std::string> names;
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_TRUE(names.insert(space.at(i).name()).second);
  }
}

TEST(StrategySpace, FourPartPartsSumToChannels) {
  const auto space = StrategySpace::for_tenants(4);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const Strategy& s = space.at(i);
    if (s.kind != StrategyKind::kFourPart) continue;
    EXPECT_EQ(s.parts[0] + s.parts[1] + s.parts[2] + s.parts[3], 8u);
    for (const auto p : s.parts) EXPECT_GE(p, 1u);
  }
}

TEST(StrategySpace, RejectsUnsupportedTenantCounts) {
  EXPECT_THROW(StrategySpace::for_tenants(3), std::invalid_argument);
  EXPECT_THROW(StrategySpace::for_tenants(1), std::invalid_argument);
}

TEST(StrategySpace, IsolatedBaselines) {
  EXPECT_EQ(StrategySpace::for_tenants(2).isolated().name(), "4:4");
  EXPECT_EQ(StrategySpace::for_tenants(4).isolated().name(), "2:2:2:2");
  EXPECT_EQ(StrategySpace::for_tenants(4).shared().name(), "Shared");
}

std::vector<TenantProfile> two_profiles(bool t0_read, bool t1_read,
                                        double i0 = 0.5, double i1 = 0.5) {
  return {TenantProfile{0, t0_read, i0}, TenantProfile{1, t1_read, i1}};
}

TEST(AssignChannels, SharedGivesEveryoneEverything) {
  const auto profiles = two_profiles(false, true);
  const auto sets = assign_channels(Strategy{}, profiles, 8);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].size(), 8u);
  EXPECT_EQ(sets[1].size(), 8u);
}

TEST(AssignChannels, TwoPartSplitsByCharacteristic) {
  Strategy s;
  s.kind = StrategyKind::kTwoPart;
  s.parts = {6, 2, 0, 0};
  const auto profiles = two_profiles(false, true);  // t0 write, t1 read
  const auto sets = assign_channels(s, profiles, 8);
  EXPECT_EQ(sets[0], (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sets[1], (std::vector<std::uint32_t>{6, 7}));
}

TEST(AssignChannels, TwoPartHomogeneousFallsBackToIntensity) {
  Strategy s;
  s.kind = StrategyKind::kTwoPart;
  s.parts = {7, 1, 0, 0};
  // Both read-dominated; tenant 1 is the heavy one -> gets part 0.
  const auto profiles = two_profiles(true, true, 0.2, 0.8);
  const auto sets = assign_channels(s, profiles, 8);
  EXPECT_EQ(sets[1].size(), 7u);
  EXPECT_EQ(sets[0].size(), 1u);
}

TEST(AssignChannels, FourTenantsTwoPartGroupsByCharacteristic) {
  Strategy s;
  s.kind = StrategyKind::kTwoPart;
  s.parts = {3, 5, 0, 0};
  const std::vector<TenantProfile> profiles{
      {0, false, 0.4}, {1, true, 0.3}, {2, false, 0.2}, {3, true, 0.1}};
  const auto sets = assign_channels(s, profiles, 8);
  EXPECT_EQ(sets[0], sets[2]);  // both write-dominated share part 0
  EXPECT_EQ(sets[1], sets[3]);
  EXPECT_EQ(sets[0].size(), 3u);
  EXPECT_EQ(sets[1].size(), 5u);
}

TEST(AssignChannels, FourPartLargestToMostIntense) {
  Strategy s;
  s.kind = StrategyKind::kFourPart;
  s.parts = {1, 1, 5, 1};  // unsorted on purpose
  const std::vector<TenantProfile> profiles{
      {0, false, 0.1}, {1, true, 0.6}, {2, false, 0.2}, {3, true, 0.1}};
  const auto sets = assign_channels(s, profiles, 8);
  EXPECT_EQ(sets[1].size(), 5u);  // most intense tenant
  EXPECT_EQ(sets[2].size(), 1u);
  // Channel ranges are disjoint and cover [0, 8).
  std::set<std::uint32_t> all;
  for (const auto& set : sets) {
    for (const auto ch : set) EXPECT_TRUE(all.insert(ch).second);
  }
  EXPECT_EQ(all.size(), 8u);
}

TEST(AssignChannels, FourPartNeedsFourTenants) {
  Strategy s;
  s.kind = StrategyKind::kFourPart;
  s.parts = {2, 2, 2, 2};
  const auto profiles = two_profiles(false, true);
  EXPECT_THROW(assign_channels(s, profiles, 8), std::invalid_argument);
}

TEST(AssignChannels, BadPartSumRejected) {
  Strategy s;
  s.kind = StrategyKind::kTwoPart;
  s.parts = {5, 5, 0, 0};
  const auto profiles = two_profiles(false, true);
  EXPECT_THROW(assign_channels(s, profiles, 8), std::invalid_argument);
}

TEST(AssignChannels, TieOnIntensityIsStable) {
  Strategy s;
  s.kind = StrategyKind::kFourPart;
  s.parts = {5, 1, 1, 1};
  const std::vector<TenantProfile> profiles{
      {0, false, 0.25}, {1, true, 0.25}, {2, false, 0.25}, {3, true, 0.25}};
  const auto sets = assign_channels(s, profiles, 8);
  EXPECT_EQ(sets[0].size(), 5u);  // first tenant wins the tie
}

/// assign_channels hands a four-part composition's parts out
/// largest-first, so the 34 compositions configure one device per multiset
/// of parts: whatever the profiles, the 42 strategies hold 12 distinct
/// channel maps (Shared, the 7 two-part splits, 4 multisets). The label
/// sweep replays each distinct map once, so its cost rests on this count.
TEST(StrategySpace, FourTenantSpaceHasTwelveDistinctChannelMaps) {
  using ChannelMap = std::vector<std::vector<std::uint32_t>>;
  const auto space = StrategySpace::for_tenants(4);
  const std::vector<std::vector<TenantProfile>> cases{
      {{0, false, 0.4}, {1, true, 0.3}, {2, false, 0.2}, {3, true, 0.1}},
      {{0, true, 0.1}, {1, true, 0.2}, {2, true, 0.3}, {3, true, 0.4}},
      {{0, false, 0.3}, {1, false, 0.1}, {2, false, 0.4}, {3, false, 0.2}},
      {{0, false, 0.25}, {1, true, 0.25}, {2, false, 0.25}, {3, true, 0.25}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    // A strategy's class is its name, with a four-part composition's parts
    // sorted so that its permutations share one class.
    std::set<std::string> classes;
    std::map<ChannelMap, std::set<std::string>> classes_of_map;
    for (std::size_t i = 0; i < space.size(); ++i) {
      Strategy cls = space.at(i);
      if (cls.kind == StrategyKind::kFourPart) {
        std::sort(cls.parts.begin(), cls.parts.end(), std::greater<>());
      }
      classes.insert(cls.name());
      classes_of_map[assign_channels(space.at(i), cases[c], 8)].insert(
          cls.name());
    }
    EXPECT_EQ(classes.size(), 12u);
    EXPECT_EQ(classes_of_map.size(), 12u);
    for (const auto& [map, names] : classes_of_map) {
      EXPECT_EQ(names.size(), 1u) << *names.begin();
    }
  }

  const auto two = StrategySpace::for_tenants(2);
  for (const auto& profiles :
       {two_profiles(false, true), two_profiles(true, true, 0.2, 0.8),
        two_profiles(false, false, 0.5, 0.5)}) {
    std::set<ChannelMap> maps;
    for (std::size_t i = 0; i < two.size(); ++i) {
      maps.insert(assign_channels(two.at(i), profiles, 8));
    }
    EXPECT_EQ(maps.size(), two.size());
  }
}

}  // namespace
}  // namespace ssdk::core
