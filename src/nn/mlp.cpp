#include "nn/mlp.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "nn/activations.hpp"
#include "nn/loss.hpp"

namespace ssdk::nn {

Mlp::Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden_act,
         std::uint64_t seed) {
  if (layer_sizes.size() < 2) {
    throw std::invalid_argument("Mlp needs at least input and output sizes");
  }
  Rng rng(seed);
  layers_.reserve(layer_sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    const bool is_output = (i + 2 == layer_sizes.size());
    layers_.emplace_back(layer_sizes[i], layer_sizes[i + 1],
                         is_output ? Activation::kIdentity : hidden_act,
                         rng);
  }
}

Mlp::Mlp(std::vector<DenseLayer> layers) : layers_(std::move(layers)) {
  if (layers_.empty()) throw std::invalid_argument("Mlp needs >= 1 layer");
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    if (layers_[i].out_features() != layers_[i + 1].in_features()) {
      throw std::invalid_argument("Mlp layer shape mismatch");
    }
  }
}

const Matrix& Mlp::forward(const Matrix& input) {
  const Matrix* x = &input;
  for (auto& layer : layers_) x = &layer.forward(*x);
  return *x;
}

const Matrix& Mlp::forward_inference(const Matrix& input,
                                     InferenceScratch& scratch) const {
  const Matrix* x = &input;
  Matrix* bufs[2] = {&scratch.a, &scratch.b};
  std::size_t which = 0;
  for (const auto& layer : layers_) {
    Matrix& out = *bufs[which];
    layer.forward_into(*x, out);
    x = &out;
    which ^= 1;
  }
  return *x;
}

void Mlp::backward(const Matrix& dlogits) {
  const Matrix* grad = &dlogits;
  bool pre_activation = true;  // fused softmax+CE gives d loss / d z directly
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = &it->backward(*grad, pre_activation);
    pre_activation = false;
  }
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

double Mlp::train_loss_and_grad(const Matrix& input,
                                const std::vector<std::uint32_t>& labels) {
  const Matrix& logits = forward(input);
  const double loss = softmax_cross_entropy(logits, labels, &logits_grad_);
  backward(logits_grad_);
  return loss;
}

std::vector<std::uint32_t> Mlp::predict(const Matrix& input,
                                        InferenceScratch& scratch) const {
  const Matrix& logits = forward_inference(input, scratch);
  std::vector<std::uint32_t> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      if (logits(r, c) > logits(r, best)) best = c;
    }
    out[r] = static_cast<std::uint32_t>(best);
  }
  return out;
}

std::vector<std::uint32_t> Mlp::predict(const Matrix& input) const {
  InferenceScratch scratch;
  return predict(input, scratch);
}

Matrix Mlp::predict_proba(const Matrix& input,
                          InferenceScratch& scratch) const {
  const Matrix& logits = forward_inference(input, scratch);
  Matrix probs;
  softmax_rows(logits, probs);
  return probs;
}

std::size_t Mlp::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.parameter_count();
  return total;
}

std::size_t Mlp::multiplications_per_inference() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) {
    total += layer.in_features() * layer.out_features();
  }
  return total;
}

}  // namespace ssdk::nn
