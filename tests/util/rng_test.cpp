#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace ssdk {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 3000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyNearP) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(29);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  // Child stream should differ from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<std::size_t> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, StateRoundTripResumesStream) {
  Rng rng(1234);
  for (int i = 0; i < 57; ++i) rng.next_u64();  // mid-stream position
  const auto saved = rng.state();

  // The continued stream and a restored copy agree draw for draw.
  Rng restored(1);
  restored.set_state(saved);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(rng.next_u64(), restored.next_u64()) << "draw " << i;
  }

  // And restoring again rewinds: same state -> same stream.
  Rng rewound(2);
  rewound.set_state(saved);
  Rng again(3);
  again.set_state(saved);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(rewound.next_u64(), again.next_u64());
  }
}

TEST(Rng, SetStateRejectsAllZeroState) {
  // xoshiro256** is stuck at zero forever from the all-zero state; setting
  // it must fall back to a seeded state instead of wedging the stream.
  Rng rng(5);
  rng.set_state({0, 0, 0, 0});
  bool nonzero = false;
  for (int i = 0; i < 8 && !nonzero; ++i) nonzero = rng.next_u64() != 0;
  EXPECT_TRUE(nonzero);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(41);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(Zipf, SkewConcentratesOnLowIndices) {
  Rng rng(43);
  ZipfGenerator zipf(1000, 0.9);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf(rng) < 10) ++low;
  }
  // Under theta=0.9, the top-10 of 1000 items draw far more than 1% mass.
  EXPECT_GT(static_cast<double>(low) / n, 0.2);
}

TEST(Zipf, AlwaysInRange) {
  Rng rng(47);
  ZipfGenerator zipf(17, 0.5);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(zipf(rng), 17u);
}

// The per-thread normalization memo must be invisible: a generator built
// after other keys on a busy thread draws exactly like one built as the
// first generator on a fresh thread. Neighbouring keys share n or theta,
// so a memo keyed on only one of them fails here.
struct ZipfKey {
  std::uint64_t n;
  double theta;
};
constexpr ZipfKey kInterleavedKeys[] = {
    {65536, 0.2}, {32768, 0.35}, {32768, 0.2}, {65536, 0.2}};

std::vector<std::uint64_t> zipf_draws(const ZipfGenerator& zipf) {
  Rng rng(53);
  std::vector<std::uint64_t> out(4096);
  for (auto& x : out) x = zipf(rng);
  return out;
}

std::vector<std::uint64_t> draws_on_fresh_thread(const ZipfKey& key) {
  std::vector<std::uint64_t> out;
  std::thread([&] { out = zipf_draws(ZipfGenerator(key.n, key.theta)); })
      .join();
  return out;
}

TEST(Zipf, MemoizedNormalizationMatchesFreshThread) {
  for (const ZipfKey& key : kInterleavedKeys) {
    EXPECT_EQ(zipf_draws(ZipfGenerator(key.n, key.theta)),
              draws_on_fresh_thread(key))
        << "n " << key.n << " theta " << key.theta;
  }
}

TEST(Zipf, MemoizedNormalizationMatchesOnPoolWorkers) {
  std::vector<std::vector<std::uint64_t>> reference;
  for (const ZipfKey& key : kInterleavedKeys) {
    reference.push_back(draws_on_fresh_thread(key));
  }
  ThreadPool pool(3);
  const std::size_t keys = std::size(kInterleavedKeys);
  // Several rounds of every key, so each worker meets keys in an order
  // that depends on scheduling.
  const auto draws = parallel_map(pool, 4 * keys, [&](std::size_t i) {
    const ZipfKey& key = kInterleavedKeys[i % keys];
    return zipf_draws(ZipfGenerator(key.n, key.theta));
  });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    EXPECT_EQ(draws[i], reference[i % keys]) << "task " << i;
  }
}

}  // namespace
}  // namespace ssdk
