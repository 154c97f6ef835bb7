// Strategy learner (paper Section IV.C): trains the 9 -> 64 -> |space|
// network on (features, best-strategy) pairs and packages the result as a
// deployable ChannelAllocator.
#pragma once

#include <cstdint>
#include <string>

#include "core/allocator.hpp"
#include "nn/dataset.hpp"
#include "nn/trainer.hpp"

namespace ssdk::core {

struct LearnerConfig {
  /// "sgd", "sgd-momentum" or "adam".
  std::string optimizer = "adam";
  /// Hidden activation; the paper compares "relu" and "logistic" for Adam.
  std::string activation = "logistic";
  std::size_t max_iterations = 200;  ///< paper Figure 4 x-axis
  std::uint64_t seed = 42;
};

struct LearnedModel {
  ChannelAllocator allocator;
  nn::TrainHistory history;
};

/// Shuffle + split 7:3 + scale + train one hidden layer of 64 neurons on
/// mini-batches of 64 (the paper's Table III setup). The dataset's labels
/// must index into `space` (labels >= space.size() throw).
LearnedModel train_strategy_learner(const nn::Dataset& dataset,
                                    const StrategySpace& space,
                                    const LearnerConfig& config);

}  // namespace ssdk::core
