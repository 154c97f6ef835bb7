#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include "nn/loss.hpp"

namespace ssdk::nn {
namespace {

/// Train a small model on a separable toy problem with the given optimizer
/// and return the final loss.
double train_toy(Optimizer& opt, int steps = 150) {
  Mlp model({2, 8, 2}, Activation::kTanh, 21);
  Matrix x{{1.0, 0.0}, {0.0, 1.0}, {0.8, 0.2}, {0.3, 0.7},
           {0.9, 0.4}, {0.1, 0.6}};
  const std::vector<std::uint32_t> y{0, 1, 0, 1, 0, 1};
  double loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    model.zero_grad();
    loss = model.train_loss_and_grad(x, y);
    opt.step(model);
  }
  return loss;
}

TEST(Optimizer, FactoryKnowsAllNames) {
  for (const char* name : {"sgd", "sgd-momentum", "adam"}) {
    const auto opt = make_optimizer(name);
    EXPECT_EQ(opt->name(), name);
  }
  for (const char* name : {"lbfgs", "adagrad", "rmsprop"}) {
    EXPECT_THROW(make_optimizer(name), std::invalid_argument) << name;
  }
}

TEST(Optimizer, SgdStepIsPlainDescent) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Matrix{{1.0}}, Matrix{{2.0}}, Activation::kIdentity);
  Mlp model(std::move(layers));
  model.mutable_layer(0).mutable_grad_weights()(0, 0) = 0.5;
  model.mutable_layer(0).mutable_grad_bias()(0, 0) = -1.0;
  Sgd sgd(0.1);
  sgd.step(model);
  EXPECT_DOUBLE_EQ(model.layer(0).weights()(0, 0), 0.95);
  EXPECT_DOUBLE_EQ(model.layer(0).bias()(0, 0), 2.1);
}

TEST(Optimizer, MomentumAccumulatesVelocity) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Matrix{{0.0}}, Matrix{{0.0}}, Activation::kIdentity);
  Mlp model(std::move(layers));
  SgdMomentum opt(0.1, 0.9);
  // Constant gradient 1.0 twice: v1 = -0.1, v2 = -0.19.
  model.mutable_layer(0).mutable_grad_weights()(0, 0) = 1.0;
  opt.step(model);
  EXPECT_NEAR(model.layer(0).weights()(0, 0), -0.1, 1e-12);
  model.mutable_layer(0).mutable_grad_weights()(0, 0) = 1.0;
  opt.step(model);
  EXPECT_NEAR(model.layer(0).weights()(0, 0), -0.29, 1e-12);
}

TEST(Optimizer, AdamFirstStepApproachesLr) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Matrix{{0.0}}, Matrix{{0.0}}, Activation::kIdentity);
  Mlp model(std::move(layers));
  Adam opt(0.02);
  model.mutable_layer(0).mutable_grad_weights()(0, 0) = 3.0;
  opt.step(model);
  // With bias correction, the first Adam step is ~lr regardless of scale.
  EXPECT_NEAR(model.layer(0).weights()(0, 0), -0.02, 1e-6);
}

TEST(Optimizer, AllOptimizersConvergeOnToyProblem) {
  for (const char* name : {"sgd", "sgd-momentum", "adam"}) {
    const auto opt = make_optimizer(name);
    const double final_loss = train_toy(*opt);
    EXPECT_LT(final_loss, 0.2) << name;
  }
}

TEST(Optimizer, AdamBeatsPlainSgdOnToyProblem) {
  Sgd sgd(0.02);  // same small lr as Adam -> slower
  Adam adam(0.02);
  const double sgd_loss = train_toy(sgd, 60);
  const double adam_loss = train_toy(adam, 60);
  EXPECT_LT(adam_loss, sgd_loss);
}

TEST(Optimizer, StateIsPerParameterSlot) {
  // Two layers must not share momentum state.
  std::vector<DenseLayer> layers;
  layers.emplace_back(Matrix{{0.0}}, Matrix{{0.0}}, Activation::kIdentity);
  layers.emplace_back(Matrix{{0.0}}, Matrix{{0.0}}, Activation::kIdentity);
  Mlp model(std::move(layers));
  SgdMomentum opt(0.1, 0.9);
  model.mutable_layer(0).mutable_grad_weights()(0, 0) = 1.0;
  model.mutable_layer(1).mutable_grad_weights()(0, 0) = -1.0;
  opt.step(model);
  EXPECT_NEAR(model.layer(0).weights()(0, 0), -0.1, 1e-12);
  EXPECT_NEAR(model.layer(1).weights()(0, 0), 0.1, 1e-12);
}

}  // namespace
}  // namespace ssdk::nn
