// The batched inference path (matmul_into / DenseLayer::forward_into /
// Mlp::forward_inference) is a layout-and-allocation optimization, not a
// numerical change: for every batch size its logits must equal the
// training forward() bit for bit, per-row inference must equal batched
// inference, and interleaving it with training must leave gradients
// untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace ssdk::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double zero_fraction = 0.0) {
  Matrix m(rows, cols);
  for (auto& v : m.raw()) {
    v = rng.bernoulli(zero_fraction) ? 0.0 : rng.normal(0.0, 1.0);
  }
  return m;
}

TEST(BatchedInference, MatmulIntoMatchesMatmulAcrossShapes) {
  Rng rng(41);
  // Shapes straddle the 4-row block boundary and include zeros to
  // exercise the skip path in both kernels.
  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 32u}) {
    Matrix a = random_matrix(m, 9, rng, 0.3);
    Matrix b = random_matrix(9, 64, rng);
    Matrix expected;
    matmul(a, b, expected);
    // Pre-dirty the destination: matmul_into must fully overwrite it.
    Matrix out(m, 64, 123.0);
    matmul_into(a, b, out);
    EXPECT_EQ(out.raw(), expected.raw()) << "m=" << m;
    // Second call reuses storage; result unchanged.
    matmul_into(a, b, out);
    EXPECT_EQ(out.raw(), expected.raw()) << "m=" << m << " (reuse)";
  }
}

TEST(BatchedInference, ForwardInferenceMatchesTrainingForward) {
  Rng rng(7);
  Mlp model({9, 64, 42}, Activation::kReLU, 99);
  InferenceScratch scratch;
  for (const std::size_t batch : {1u, 2u, 4u, 5u, 16u, 33u}) {
    const Matrix x = random_matrix(batch, 9, rng);
    Mlp reference = model;  // keep `model`'s caches out of the comparison
    const Matrix& trained = reference.forward(x);
    const Matrix& inferred = model.forward_inference(x, scratch);
    ASSERT_EQ(inferred.rows(), trained.rows());
    ASSERT_EQ(inferred.cols(), trained.cols());
    EXPECT_EQ(inferred.raw(), trained.raw()) << "batch " << batch;
  }
}

TEST(BatchedInference, BatchedPredictMatchesPerRowPredict) {
  Rng rng(11);
  Mlp model({9, 64, 42}, Activation::kReLU, 5);
  const std::size_t batch = 37;
  const Matrix x = random_matrix(batch, 9, rng);
  const std::vector<std::uint32_t> batched = model.predict(x);
  ASSERT_EQ(batched.size(), batch);
  for (std::size_t r = 0; r < batch; ++r) {
    Matrix row(1, 9);
    for (std::size_t c = 0; c < 9; ++c) row(0, c) = x(r, c);
    const auto single = model.predict(row);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], batched[r]) << "row " << r;
  }
}

TEST(BatchedInference, InferenceDoesNotPerturbTrainingGradients) {
  Rng rng(17);
  const Matrix x = random_matrix(12, 9, rng);
  std::vector<std::uint32_t> labels(12);
  for (auto& l : labels) {
    l = static_cast<std::uint32_t>(rng.next_u64() % 42);
  }

  Mlp clean({9, 64, 42}, Activation::kReLU, 3);
  Mlp interleaved = clean;

  clean.zero_grad();
  const double clean_loss = clean.train_loss_and_grad(x, labels);

  // Run inference between zero_grad and the training step: the gradients
  // must be what the clean model computes, bit for bit.
  interleaved.zero_grad();
  const Matrix probe = random_matrix(29, 9, rng);
  InferenceScratch scratch;
  (void)interleaved.forward_inference(probe, scratch);
  (void)interleaved.predict(probe, scratch);
  const double loss = interleaved.train_loss_and_grad(x, labels);

  EXPECT_EQ(loss, clean_loss);
  for (std::size_t i = 0; i < clean.num_layers(); ++i) {
    EXPECT_EQ(interleaved.layer(i).grad_weights().raw(),
              clean.layer(i).grad_weights().raw())
        << "layer " << i;
    EXPECT_EQ(interleaved.layer(i).grad_bias().raw(),
              clean.layer(i).grad_bias().raw())
        << "layer " << i;
  }
}

}  // namespace
}  // namespace ssdk::nn
