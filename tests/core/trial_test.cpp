#include "core/trial.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ssdk::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ForkTrials, FirstArgminTiesKeepLowerIndex) {
  EXPECT_EQ(first_argmin(std::vector<double>{3.0, 1.0, 2.0, 1.0}), 1u);
  EXPECT_EQ(first_argmin(std::vector<double>{2.0, 2.0, 2.0}), 0u);
  EXPECT_EQ(first_argmin(std::vector<double>{5.0}), 0u);
  EXPECT_EQ(first_argmin(std::vector<double>{kInf, 4.0, kInf, 4.0}), 1u);
}

TEST(ForkTrials, FirstArgminAllInfinityPicksFirst) {
  EXPECT_EQ(first_argmin(std::vector<double>{kInf, kInf, kInf}), 0u);
}

TEST(ForkTrials, FirstArgminPairKeysBreakTiesOnSecondField) {
  using Key = std::pair<double, double>;
  // Equal first fields: the smaller second field wins.
  EXPECT_EQ(first_argmin(std::vector<Key>{{1.0, 5.0}, {1.0, 3.0}, {2.0, 0.0}}),
            1u);
  // Equal pairs keep the lower index.
  EXPECT_EQ(first_argmin(std::vector<Key>{{2.0, 1.0}, {1.0, 3.0}, {1.0, 3.0}}),
            1u);
  // The first field dominates the second.
  EXPECT_EQ(first_argmin(std::vector<Key>{{1.0, 9.0}, {2.0, 0.0}}), 0u);
}

/// Results are merged by index whatever runs the trials: no pool, or a
/// pool of 1, 4 or 16 workers, for no trial, one trial and many.
TEST(ForkTrials, RunTrialsMergesByIndexAtAnyPoolSize) {
  // Uneven per-trial work, so pooled trials finish out of index order.
  const auto trial = [](std::size_t i) {
    std::uint64_t state = i;
    std::uint64_t h = 0;
    for (std::size_t round = 0; round < 1000 * (12 - i % 12); ++round) {
      h ^= splitmix64(state);
    }
    return std::pair<std::size_t, std::uint64_t>{i, h};
  };
  for (const std::size_t n : {0u, 1u, 12u}) {
    const auto serial = run_trials(nullptr, n, trial);
    ASSERT_EQ(serial.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(serial[i], trial(i));
    for (const std::size_t threads : {1u, 4u, 16u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(run_trials(&pool, n, trial), serial)
          << n << " trials on " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace ssdk::core
