#include "nn/optimizer.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ssdk::nn {

void Optimizer::step(Mlp& model) {
  std::size_t slot = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    auto& layer = model.mutable_layer(i);
    if (weight_decay_ > 0.0) {
      // L2 penalty on weights only: grad_W += lambda * W.
      layer.mutable_grad_weights().axpy(weight_decay_, layer.weights());
    }
    update(slot++, layer.mutable_weights(), layer.grad_weights());
    update(slot++, layer.mutable_bias(), layer.grad_bias());
  }
}

void Optimizer::set_weight_decay(double lambda) {
  if (lambda < 0.0) {
    throw std::invalid_argument("optimizer: negative weight decay");
  }
  weight_decay_ = lambda;
}

Matrix& Optimizer::state(std::size_t bank, std::size_t slot,
                         const Matrix& param) {
  if (state_.size() <= bank) state_.resize(bank + 1);
  auto& bank_vec = state_[bank];
  if (bank_vec.size() <= slot) bank_vec.resize(slot + 1);
  auto& m = bank_vec[slot];
  if (!m.same_shape(param)) m = Matrix(param.rows(), param.cols());
  return m;
}

void Sgd::update(std::size_t /*slot*/, Matrix& param, const Matrix& grad) {
  param.axpy(-lr_, grad);
}

void SgdMomentum::update(std::size_t slot, Matrix& param,
                         const Matrix& grad) {
  Matrix& v = state(0, slot, param);
  // v = momentum * v - lr * grad; param += v.
  v *= momentum_;
  v.axpy(-lr_, grad);
  param += v;
}

void Adam::update(std::size_t slot, Matrix& param, const Matrix& grad) {
  Matrix& m = state(0, slot, param);
  Matrix& v = state(1, slot, param);
  if (t_.size() <= slot) t_.resize(slot + 1, 0);
  const auto t = static_cast<double>(++t_[slot]);
  const double bc1 = 1.0 - std::pow(beta1_, t);
  const double bc2 = 1.0 - std::pow(beta2_, t);
  for (std::size_t i = 0; i < param.size(); ++i) {
    const double g = grad.raw()[i];
    m.raw()[i] = beta1_ * m.raw()[i] + (1.0 - beta1_) * g;
    v.raw()[i] = beta2_ * v.raw()[i] + (1.0 - beta2_) * g * g;
    const double mhat = m.raw()[i] / bc1;
    const double vhat = v.raw()[i] / bc2;
    param.raw()[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name) {
  // Defaults follow the paper (Section V.B): SGD lr 0.2, momentum 0.9,
  // Adam lr 0.02.
  if (name == "sgd") return std::make_unique<Sgd>(0.2);
  if (name == "sgd-momentum") return std::make_unique<SgdMomentum>(0.2, 0.9);
  if (name == "adam") return std::make_unique<Adam>(0.02);
  throw std::invalid_argument("unknown optimizer: " + name);
}

}  // namespace ssdk::nn
