#include "nn/mlp.hpp"

#include <gtest/gtest.h>

namespace ssdk::nn {
namespace {

TEST(Mlp, PaperShape) {
  Mlp model({9, 64, 42}, Activation::kLogistic, 1);
  EXPECT_EQ(model.num_layers(), 2u);
  EXPECT_EQ(model.input_size(), 9u);
  EXPECT_EQ(model.output_size(), 42u);
  // Paper Section IV.D: multiplications = sum N_i * N_{i+1}.
  EXPECT_EQ(model.multiplications_per_inference(), 9u * 64 + 64u * 42);
  EXPECT_EQ(model.parameter_count(), 9u * 64 + 64 + 64u * 42 + 42);
}

TEST(Mlp, RejectsTooFewLayers) {
  EXPECT_THROW(Mlp({5}, Activation::kReLU, 1), std::invalid_argument);
}

TEST(Mlp, OutputLayerIsLinear) {
  Mlp model({2, 3, 2}, Activation::kReLU, 2);
  EXPECT_EQ(model.layer(0).activation(), Activation::kReLU);
  EXPECT_EQ(model.layer(1).activation(), Activation::kIdentity);
}

TEST(Mlp, ForwardShape) {
  Mlp model({4, 8, 3}, Activation::kTanh, 3);
  const Matrix x(10, 4, 0.5);
  const Matrix& logits = model.forward(x);
  EXPECT_EQ(logits.rows(), 10u);
  EXPECT_EQ(logits.cols(), 3u);
}

TEST(Mlp, DeterministicGivenSeed) {
  Mlp a({3, 5, 2}, Activation::kReLU, 42);
  Mlp b({3, 5, 2}, Activation::kReLU, 42);
  const Matrix x(1, 3, 1.0);
  const Matrix& ya = a.forward(x);
  const Matrix yb = b.forward(x);
  EXPECT_EQ(ya(0, 0), yb(0, 0));
  EXPECT_EQ(ya(0, 1), yb(0, 1));
}

TEST(Mlp, PredictReturnsArgmax) {
  // Identity-ish model constructed by hand: logits = x.
  std::vector<DenseLayer> layers;
  Matrix w{{1.0, 0.0}, {0.0, 1.0}};
  Matrix b(1, 2);
  layers.emplace_back(std::move(w), std::move(b), Activation::kIdentity);
  Mlp model(std::move(layers));
  const Matrix x{{0.1, 0.9}, {2.0, -1.0}};
  const auto preds = model.predict(x);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0], 1u);
  EXPECT_EQ(preds[1], 0u);
}

TEST(Mlp, PredictProbaRowsSumToOne) {
  Mlp model({3, 4, 5}, Activation::kLogistic, 7);
  const Matrix x(6, 3, 0.2);
  InferenceScratch scratch;
  const Matrix p = model.predict_proba(x, scratch);
  for (std::size_t r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < p.cols(); ++c) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Mlp, LayerShapeMismatchThrows) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Matrix(2, 3), Matrix(1, 3), Activation::kReLU);
  layers.emplace_back(Matrix(4, 2), Matrix(1, 2), Activation::kIdentity);
  EXPECT_THROW(Mlp model(std::move(layers)), std::invalid_argument);
}

TEST(Mlp, TrainLossDecreasesWithSteps) {
  // Tiny separable problem: class = argmax coordinate.
  Mlp model({2, 8, 2}, Activation::kReLU, 11);
  Matrix x{{1.0, 0.0}, {0.0, 1.0}, {0.9, 0.1}, {0.2, 0.8}};
  const std::vector<std::uint32_t> y{0, 1, 0, 1};
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 200; ++step) {
    model.zero_grad();
    const double loss = model.train_loss_and_grad(x, y);
    if (step == 0) first = loss;
    last = loss;
    // Plain gradient descent.
    for (std::size_t li = 0; li < model.num_layers(); ++li) {
      auto& layer = model.mutable_layer(li);
      layer.mutable_weights().axpy(-0.5, layer.grad_weights());
      layer.mutable_bias().axpy(-0.5, layer.grad_bias());
    }
  }
  EXPECT_LT(last, first * 0.1);
}

}  // namespace
}  // namespace ssdk::nn
