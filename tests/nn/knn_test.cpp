#include "nn/knn.hpp"

#include <gtest/gtest.h>

namespace ssdk::nn {
namespace {

Dataset blobs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 2);
  std::vector<std::uint32_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cls = i % 2 == 0;
    x(i, 0) = rng.normal(cls ? 3.0 : -3.0, 0.5);
    x(i, 1) = rng.normal(cls ? -1.0 : 1.0, 0.5);
    y[i] = cls ? 1 : 0;
  }
  return Dataset(std::move(x), std::move(y));
}

TEST(Knn, RejectsBadInputs) {
  EXPECT_THROW(KnnClassifier(0), std::invalid_argument);
  KnnClassifier knn(3);
  EXPECT_THROW(knn.fit(Dataset()), std::invalid_argument);
  EXPECT_THROW(knn.predict(Matrix(1, 2)), std::logic_error);
  // Rows must have the fitted feature count, in every build type.
  knn.fit(Dataset(Matrix{{0.0, 0.0}, {1.0, 1.0}}, {0, 1}));
  EXPECT_THROW(knn.predict(Matrix(1, 3)), std::invalid_argument);
}

TEST(Knn, NearestNeighborExact) {
  KnnClassifier knn(1);
  Matrix x{{0.0, 0.0}, {10.0, 10.0}};
  knn.fit(Dataset(std::move(x), {7, 9}));
  const Matrix q{{1.0, 1.0}, {9.0, 9.0}};
  const auto preds = knn.predict(q);
  EXPECT_EQ(preds[0], 7u);
  EXPECT_EQ(preds[1], 9u);
}

TEST(Knn, MajorityVoteOverrulesSingleNeighbor) {
  KnnClassifier knn(3);
  // Two class-1 points near the query, one class-0 point nearest.
  Matrix x{{0.0}, {0.3}, {0.4}};
  knn.fit(Dataset(std::move(x), {0, 1, 1}));
  const Matrix q{{0.1}};
  EXPECT_EQ(knn.predict(q)[0], 1u);
}

TEST(Knn, KLargerThanDatasetClamps) {
  KnnClassifier knn(100);
  Matrix x{{0.0}, {1.0}};
  knn.fit(Dataset(std::move(x), {0, 1}));
  EXPECT_NO_THROW(knn.predict(Matrix{{0.2}}));
}

TEST(Knn, SeparableBlobsHighAccuracy) {
  KnnClassifier knn(5);
  knn.fit(blobs(200, 1));
  const Dataset test = blobs(60, 2);
  const auto preds = knn.predict(test.features());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == test.labels()[i]) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(preds.size()),
            0.95);
}

TEST(Knn, MemoryScalesWithTrainingSet) {
  KnnClassifier small(3), large(3);
  small.fit(blobs(50, 3));
  large.fit(blobs(500, 3));
  EXPECT_GT(large.memory_bytes(), small.memory_bytes() * 9);
  // The paper's point: a 9->64->42 MLP stores ~3.4k parameters, while
  // knn at its dataset scale stores every sample.
  EXPECT_EQ(small.memory_bytes(), 50u * (2 * sizeof(double) +
                                         sizeof(std::uint32_t)));
}

TEST(Knn, TieBreaksTowardSmallerClass) {
  KnnClassifier knn(2);
  Matrix x{{0.0}, {1.0}};
  knn.fit(Dataset(std::move(x), {5, 2}));
  // Both neighbors vote once; smaller class id (2) wins.
  EXPECT_EQ(knn.predict(Matrix{{0.5}})[0], 2u);
}

}  // namespace
}  // namespace ssdk::nn
