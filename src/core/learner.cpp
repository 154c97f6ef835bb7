#include "core/learner.hpp"

#include <stdexcept>

#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace ssdk::core {

namespace {

// The paper's network and split (Section IV.C, Table III).
constexpr std::size_t kHiddenNeurons = 64;
constexpr std::size_t kBatchSize = 64;
constexpr double kTrainFraction = 0.7;

}  // namespace

LearnedModel train_strategy_learner(const nn::Dataset& dataset,
                                    const StrategySpace& space,
                                    const LearnerConfig& config) {
  if (dataset.empty()) {
    throw std::invalid_argument("learner: empty dataset");
  }
  if (dataset.feature_dim() != kFeatureDim) {
    throw std::invalid_argument("learner: feature dim != 9");
  }
  for (const auto label : dataset.labels()) {
    if (label >= space.size()) {
      throw std::invalid_argument("learner: label outside strategy space");
    }
  }

  nn::Dataset shuffled = dataset;
  Rng rng(config.seed);
  shuffled.shuffle(rng);
  auto [train_raw, test_raw] = shuffled.split(kTrainFraction);

  nn::StandardScaler scaler;
  scaler.fit(train_raw.features());
  nn::Dataset train(scaler.transform(train_raw.features()),
                    std::vector<std::uint32_t>(train_raw.labels()));
  nn::Dataset test = test_raw.empty()
                         ? nn::Dataset()
                         : nn::Dataset(scaler.transform(test_raw.features()),
                                       std::vector<std::uint32_t>(
                                           test_raw.labels()));

  nn::Mlp model({kFeatureDim, kHiddenNeurons, space.size()},
                nn::activation_from_string(config.activation), config.seed);
  auto optimizer = nn::make_optimizer(config.optimizer);

  nn::TrainOptions options;
  options.max_iterations = config.max_iterations;
  options.batch_size = kBatchSize;
  options.shuffle_seed = config.seed;
  nn::TrainHistory history =
      nn::train_classifier(model, *optimizer, train, test, options);

  return LearnedModel{
      ChannelAllocator(std::move(model), std::move(scaler), space),
      std::move(history)};
}

}  // namespace ssdk::core
