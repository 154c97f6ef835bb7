#include "nn/naive_bayes.hpp"

#include <gtest/gtest.h>

#include "nn/metrics.hpp"
#include "util/rng.hpp"

namespace ssdk::nn {
namespace {

Dataset blobs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 2);
  std::vector<std::uint32_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cls = static_cast<std::uint32_t>(i % 3);
    const double cx = cls == 0 ? -4.0 : (cls == 1 ? 0.0 : 4.0);
    x(i, 0) = rng.normal(cx, 0.7);
    x(i, 1) = rng.normal(cls == 1 ? 3.0 : -1.0, 0.7);
    y[i] = cls;
  }
  return Dataset(std::move(x), std::move(y));
}

TEST(NaiveBayes, RejectsBadInputs) {
  EXPECT_THROW(NaiveBayesClassifier(0.0), std::invalid_argument);
  NaiveBayesClassifier nb;
  EXPECT_THROW(nb.fit(Dataset()), std::invalid_argument);
  EXPECT_THROW(nb.predict(Matrix(1, 2)), std::logic_error);
  // Rows must have the fitted feature count, in every build type.
  nb.fit(blobs(30, 1));
  EXPECT_THROW(nb.predict(Matrix(1, 3)), std::invalid_argument);
}

TEST(NaiveBayes, SeparableBlobsHighAccuracy) {
  NaiveBayesClassifier nb;
  nb.fit(blobs(300, 1));
  const Dataset test = blobs(90, 2);
  const double acc = accuracy(nb.predict(test.features()), test.labels());
  EXPECT_GT(acc, 0.95);
}

TEST(NaiveBayes, RecoversClassMeans) {
  // Deterministic two-point classes: prediction follows proximity.
  Matrix x{{0.0, 0.0}, {0.2, 0.0}, {10.0, 0.0}, {10.2, 0.0}};
  NaiveBayesClassifier nb;
  nb.fit(Dataset(std::move(x), {0, 0, 1, 1}));
  EXPECT_EQ(nb.predict(Matrix{{1.0, 0.0}})[0], 0u);
  EXPECT_EQ(nb.predict(Matrix{{9.0, 0.0}})[0], 1u);
}

TEST(NaiveBayes, PriorsBreakNearTies) {
  // Overlapping classes with a 3:1 prior: ambiguous points go to the
  // majority class.
  Rng rng(3);
  Matrix x(200, 1);
  std::vector<std::uint32_t> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    const bool majority = i % 4 != 0;
    x(i, 0) = rng.normal(0.0, 1.0);  // same distribution for both
    y[i] = majority ? 0 : 1;
  }
  NaiveBayesClassifier nb;
  nb.fit(Dataset(std::move(x), std::move(y)));
  EXPECT_EQ(nb.predict(Matrix{{0.0}})[0], 0u);
}

TEST(NaiveBayes, UnseenClassNeverPredicted) {
  // Labels {0, 2}: class 1 absent -> prior -inf.
  Matrix x{{0.0}, {5.0}};
  NaiveBayesClassifier nb;
  nb.fit(Dataset(std::move(x), {0, 2}));
  EXPECT_EQ(nb.num_classes(), 3u);
  const auto pred = nb.predict(Matrix{{2.4}, {2.6}});
  EXPECT_EQ(pred[0], 0u);
  EXPECT_EQ(pred[1], 2u);
}

TEST(NaiveBayes, ZeroVarianceHandledByFloor) {
  Matrix x{{1.0}, {1.0}, {2.0}, {2.0}};
  NaiveBayesClassifier nb;
  nb.fit(Dataset(std::move(x), {0, 0, 1, 1}));
  EXPECT_EQ(nb.predict(Matrix{{1.01}})[0], 0u);
  EXPECT_EQ(nb.predict(Matrix{{1.99}})[0], 1u);
}

TEST(NaiveBayes, MemoryIndependentOfDatasetSize) {
  NaiveBayesClassifier small, large;
  small.fit(blobs(60, 5));
  large.fit(blobs(600, 5));
  EXPECT_EQ(small.memory_bytes(), large.memory_bytes());
}

}  // namespace
}  // namespace ssdk::nn
