// Multi-layer perceptron classifier.
//
// The paper's strategy learner is a 9 -> 64 -> 42 network: one hidden layer
// with a configurable activation and a linear output layer whose logits feed
// a fused softmax + cross-entropy. This class supports arbitrary depth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace ssdk::nn {

/// Caller-owned ping-pong buffers for the inference-only forward pass.
/// Owning the scratch is what makes concurrent inference on one shared
/// (const) model safe: the model's weights are read-only during
/// forward_inference, so threads race only if they share scratch. Give
/// each thread (or each owner-partitioned caller, e.g. a per-device
/// keeper) its own InferenceScratch and the model needs no locking.
struct InferenceScratch {
  Matrix a;
  Matrix b;
};

class Mlp {
 public:
  /// `layer_sizes` = {in, hidden..., out}; hidden layers use `hidden_act`,
  /// the output layer is linear (logits).
  Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden_act,
      std::uint64_t seed);

  /// For deserialization.
  explicit Mlp(std::vector<DenseLayer> layers);

  std::size_t num_layers() const { return layers_.size(); }
  const DenseLayer& layer(std::size_t i) const { return layers_.at(i); }
  DenseLayer& mutable_layer(std::size_t i) { return layers_.at(i); }

  std::size_t input_size() const { return layers_.front().in_features(); }
  std::size_t output_size() const { return layers_.back().out_features(); }

  /// Forward pass to raw logits (batch x classes). Stores per-layer
  /// caches for a subsequent backward() — the training path.
  const Matrix& forward(const Matrix& input);

  /// Inference-only forward to raw logits: ping-pongs between the two
  /// scratch matrices, touching no layer caches and allocating nothing
  /// after the first call at a given batch size. Logits are bit-identical
  /// to forward() (same kernels, same order), and any batch partitioning
  /// yields the same rows because rows are independent. It writes only
  /// into `scratch`, so one model may serve concurrent callers as long as
  /// each brings its own scratch.
  const Matrix& forward_inference(const Matrix& input,
                                  InferenceScratch& scratch) const;

  /// Backprop of the fused-softmax gradient (d loss / d logits).
  void backward(const Matrix& dlogits);

  void zero_grad();

  /// Mean cross-entropy loss on a batch plus gradient accumulation.
  double train_loss_and_grad(const Matrix& input,
                             const std::vector<std::uint32_t>& labels);

  /// Argmax class per row. The scratch-less overload allocates its own
  /// scratch per call (evaluation loops, the generic learner interface).
  std::vector<std::uint32_t> predict(const Matrix& input,
                                     InferenceScratch& scratch) const;
  std::vector<std::uint32_t> predict(const Matrix& input) const;

  /// Class probabilities (softmax of logits).
  Matrix predict_proba(const Matrix& input, InferenceScratch& scratch) const;

  /// Total parameters; the paper's storage-overhead estimate is 16 bytes
  /// per neuron, ours is exact: 8 bytes per parameter.
  std::size_t parameter_count() const;

  /// Float multiplications per forward pass of one sample
  /// (sum over layers of in*out), matching the paper's overhead formula.
  std::size_t multiplications_per_inference() const;

 private:
  std::vector<DenseLayer> layers_;
  Matrix logits_grad_;  // training scratch
};

}  // namespace ssdk::nn
