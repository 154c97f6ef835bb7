// First-order optimizers: SGD, SGD with momentum, Adam — the three the
// paper evaluates (Table III): SGD (lr 0.2), SGD-momentum (lr 0.2, momentum
// 0.9) and Adam (lr 0.02) with ReLU / logistic activations.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace ssdk::nn {

/// Applies an update to one parameter matrix given its gradient. Optimizers
/// keep per-parameter state (momentum/moment estimates) indexed by slot.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Update all parameters of `model` from its accumulated gradients.
  void step(Mlp& model);

  /// L2 regularization strength: before each update, lambda * W is added
  /// to the weight gradients (biases are exempt, the usual convention).
  /// 0 (default) disables it.
  void set_weight_decay(double lambda);
  double weight_decay() const { return weight_decay_; }

  virtual std::string name() const = 0;

 protected:
  /// Update a single parameter matrix in place. `slot` uniquely identifies
  /// the matrix across calls so per-parameter state can be kept.
  virtual void update(std::size_t slot, Matrix& param, const Matrix& grad) = 0;

  /// Fetch (lazily creating) a state matrix shaped like `param`.
  Matrix& state(std::size_t bank, std::size_t slot, const Matrix& param);

 private:
  // state_[bank][slot]; banks let optimizers keep several moments.
  std::vector<std::vector<Matrix>> state_;
  double weight_decay_ = 0.0;
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr) : lr_(lr) {}
  std::string name() const override { return "sgd"; }

 protected:
  void update(std::size_t slot, Matrix& param, const Matrix& grad) override;

 private:
  double lr_;
};

class SgdMomentum final : public Optimizer {
 public:
  SgdMomentum(double lr, double momentum) : lr_(lr), momentum_(momentum) {}
  std::string name() const override { return "sgd-momentum"; }

 protected:
  void update(std::size_t slot, Matrix& param, const Matrix& grad) override;

 private:
  double lr_;
  double momentum_;
};

class Adam final : public Optimizer {
 public:
  Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  std::string name() const override { return "adam"; }

 protected:
  void update(std::size_t slot, Matrix& param, const Matrix& grad) override;

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::vector<std::uint64_t> t_;  // per-slot step counts (bias correction)
};

/// Factory from a name ("sgd", "sgd-momentum", "adam") with the paper's
/// hyperparameters as defaults; any other name throws
/// std::invalid_argument.
std::unique_ptr<Optimizer> make_optimizer(const std::string& name);

}  // namespace ssdk::nn
