#include "nn/trainer.hpp"

#include <algorithm>
#include <chrono>

#include "nn/loss.hpp"
#include "nn/metrics.hpp"

namespace ssdk::nn {

TrainHistory train_classifier(Mlp& model, Optimizer& opt,
                              const Dataset& train, const Dataset& test,
                              const TrainOptions& options) {
  TrainHistory history;
  history.optimizer_name = opt.name();
  if (train.empty()) return history;

  Dataset shuffled = train;
  Rng rng(options.shuffle_seed);

  // ssdk-lint: allow(wall-clock): measures training wall time for
  // TrainHistory reporting; never feeds the simulation schedule.
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t epoch = 0; epoch < options.max_iterations; ++epoch) {
    shuffled.shuffle(rng);

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < shuffled.size();
         begin += options.batch_size) {
      const std::size_t end =
          std::min(begin + options.batch_size, shuffled.size());
      auto [x, y] = shuffled.batch(begin, end);
      model.zero_grad();
      epoch_loss += model.train_loss_and_grad(x, y);
      opt.step(model);
      ++batches;
    }
    history.train_loss.push_back(epoch_loss /
                                 static_cast<double>(std::max<std::size_t>(
                                     batches, 1)));

    if (!test.empty() &&
        (epoch % options.eval_every == 0 ||
         epoch + 1 == options.max_iterations)) {
      const auto preds = model.predict(test.features());
      history.test_accuracy.push_back(accuracy(preds, test.labels()));
    }
  }
  // ssdk-lint: allow(wall-clock): closes the reporting-only timer above.
  const auto stop = std::chrono::steady_clock::now();
  history.wall_time_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  history.final_loss =
      history.train_loss.empty() ? 0.0 : history.train_loss.back();
  history.final_accuracy =
      history.test_accuracy.empty() ? 0.0 : history.test_accuracy.back();
  return history;
}

std::pair<double, double> evaluate(Mlp& model, const Dataset& data) {
  if (data.empty()) return {0.0, 0.0};
  const Matrix& logits = model.forward(data.features());
  const double loss = softmax_cross_entropy(logits, data.labels(), nullptr);
  const auto preds = model.predict(data.features());
  return {loss, accuracy(preds, data.labels())};
}

}  // namespace ssdk::nn
