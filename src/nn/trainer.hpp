// Mini-batch training loop with per-iteration history — produces exactly the
// series the paper plots in Figure 4 (training loss, test accuracy) and the
// Table III summary (final loss, final accuracy, wall-clock training time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/scaler.hpp"
#include "util/rng.hpp"

namespace ssdk::nn {

struct TrainOptions {
  std::size_t max_iterations = 200;  ///< epochs (paper's x-axis)
  std::size_t batch_size = 64;
  /// Seeds the shuffle of the training set at the start of every epoch.
  std::uint64_t shuffle_seed = 42;
  /// Evaluate test accuracy every `eval_every` epochs (1 = every epoch).
  std::size_t eval_every = 1;
};

struct TrainHistory {
  std::vector<double> train_loss;     ///< one entry per epoch
  std::vector<double> test_accuracy;  ///< one entry per evaluated epoch
  double final_loss = 0.0;
  double final_accuracy = 0.0;
  double wall_time_ms = 0.0;
  std::string optimizer_name;
};

/// Trains `model` on `train`, evaluating on `test`. Features must already
/// be scaled consistently across the two splits.
TrainHistory train_classifier(Mlp& model, Optimizer& opt,
                              const Dataset& train, const Dataset& test,
                              const TrainOptions& options);

/// Mean CE loss and accuracy on a dataset without touching gradients.
std::pair<double, double> evaluate(Mlp& model, const Dataset& data);

}  // namespace ssdk::nn
