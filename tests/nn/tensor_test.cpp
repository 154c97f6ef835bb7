#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace ssdk::nn {
namespace {

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m(1, 2), 1.5);
  m.zero();
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a{{1.0, 2.0}};
  const Matrix b{{3.0, 4.0}};
  a += b;
  EXPECT_EQ(a(0, 0), 4.0);
  a -= b;
  EXPECT_EQ(a(0, 1), 2.0);
  a *= 2.0;
  EXPECT_EQ(a(0, 0), 2.0);
  a.axpy(0.5, b);
  EXPECT_EQ(a(0, 1), 6.0);
}

TEST(Matmul, KnownProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c;
  matmul(a, b, c);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matmul, RectangularShapes) {
  const Matrix a(3, 5, 1.0);
  const Matrix b(5, 2, 2.0);
  Matrix c;
  matmul(a, b, c);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_EQ(c(2, 1), 10.0);
}

TEST(MatmulAtB, MatchesExplicitTranspose) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};  // 3x2
  const Matrix b{{1.0}, {2.0}, {3.0}};                 // 3x1
  Matrix c;
  matmul_at_b(a, b, c);  // (2x3)*(3x1) = 2x1
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_EQ(c(0, 0), 22.0);  // 1+6+15
  EXPECT_EQ(c(1, 0), 28.0);  // 2+8+18
}

TEST(MatmulABt, MatchesExplicitTranspose) {
  const Matrix a{{1.0, 2.0}};          // 1x2
  const Matrix b{{3.0, 4.0}, {5.0, 6.0}};  // 2x2 -> b^T is 2x2
  Matrix c;
  matmul_a_bt(a, b, c);  // 1x2
  EXPECT_EQ(c(0, 0), 11.0);  // 1*3+2*4
  EXPECT_EQ(c(0, 1), 17.0);  // 1*5+2*6
}

// The kernel computes four output columns per pass; every element must
// still be the naive ascending-p sum from 0.0, bit for bit, including the
// n % 4 leftover columns.
TEST(MatmulABt, BitIdenticalToNaiveLoop) {
  Rng rng(17);
  const auto random_matrix = [&](std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    for (double& x : m.raw()) {
      // Mixed magnitudes make the sum's rounding depend on its order.
      x = rng.uniform_real(-1.0, 1.0) *
          std::pow(10.0, static_cast<double>(rng.uniform_int(-6, 6)));
    }
    return m;
  };
  for (const std::size_t k : {1u, 7u, 42u, 64u}) {
    for (const std::size_t n : {1u, 2u, 3u, 8u, 9u, 10u, 11u, 64u}) {
      const Matrix a = random_matrix(5, k);
      const Matrix b = random_matrix(n, k);
      Matrix c;
      matmul_a_bt(a, b, c);
      ASSERT_EQ(c.rows(), 5u);
      ASSERT_EQ(c.cols(), n);
      for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double naive = 0.0;
          for (std::size_t p = 0; p < k; ++p) naive += a(i, p) * b(j, p);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(c(i, j)),
                    std::bit_cast<std::uint64_t>(naive))
              << "k=" << k << " n=" << n << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(Broadcast, AddRowVector) {
  Matrix m{{1.0, 1.0}, {2.0, 2.0}};
  const Matrix bias{{10.0, 20.0}};
  add_row_broadcast(m, bias);
  EXPECT_EQ(m(0, 0), 11.0);
  EXPECT_EQ(m(1, 1), 22.0);
}

TEST(ColumnSums, SumsEachColumn) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Matrix s;
  column_sums(m, s);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_EQ(s(0, 0), 4.0);
  EXPECT_EQ(s(0, 1), 6.0);
}

TEST(Hadamard, Elementwise) {
  const Matrix a{{2.0, 3.0}};
  const Matrix b{{4.0, 5.0}};
  Matrix c;
  hadamard(a, b, c);
  EXPECT_EQ(c(0, 0), 8.0);
  EXPECT_EQ(c(0, 1), 15.0);
}

TEST(Frobenius, KnownNorm) {
  const Matrix m{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
}

}  // namespace
}  // namespace ssdk::nn
