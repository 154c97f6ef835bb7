#include "nn/naive_bayes.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace ssdk::nn {

NaiveBayesClassifier::NaiveBayesClassifier(double var_floor)
    : var_floor_(var_floor) {
  if (var_floor <= 0.0) {
    throw std::invalid_argument("naive bayes: variance floor must be > 0");
  }
}

void NaiveBayesClassifier::fit(const Dataset& train) {
  if (train.empty()) {
    throw std::invalid_argument("naive bayes: empty training set");
  }
  num_classes_ = train.num_classes();
  dim_ = train.feature_dim();
  mean_ = Matrix(num_classes_, dim_);
  variance_ = Matrix(num_classes_, dim_);
  log_prior_.assign(num_classes_,
                    -std::numeric_limits<double>::infinity());

  std::vector<std::size_t> counts(num_classes_, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    const std::uint32_t c = train.labels()[i];
    ++counts[c];
    for (std::size_t f = 0; f < dim_; ++f) {
      mean_(c, f) += train.features()(i, f);
    }
  }
  for (std::uint32_t c = 0; c < num_classes_; ++c) {
    if (counts[c] == 0) continue;
    for (std::size_t f = 0; f < dim_; ++f) {
      mean_(c, f) /= static_cast<double>(counts[c]);
    }
    log_prior_[c] = std::log(static_cast<double>(counts[c]) /
                             static_cast<double>(train.size()));
  }
  for (std::size_t i = 0; i < train.size(); ++i) {
    const std::uint32_t c = train.labels()[i];
    for (std::size_t f = 0; f < dim_; ++f) {
      const double d = train.features()(i, f) - mean_(c, f);
      variance_(c, f) += d * d;
    }
  }
  for (std::uint32_t c = 0; c < num_classes_; ++c) {
    if (counts[c] == 0) continue;
    for (std::size_t f = 0; f < dim_; ++f) {
      variance_(c, f) = std::max(
          variance_(c, f) / static_cast<double>(counts[c]), var_floor_);
    }
  }
}

std::uint32_t NaiveBayesClassifier::predict_one(const double* row,
                                                std::size_t dim) const {
  if (!fitted()) throw std::logic_error("naive bayes: predict before fit");
  if (dim != dim_) {
    throw std::invalid_argument("naive bayes: feature dim mismatch");
  }
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint32_t best = 0;
  for (std::uint32_t c = 0; c < num_classes_; ++c) {
    if (std::isinf(log_prior_[c])) continue;
    double score = log_prior_[c];
    for (std::size_t f = 0; f < dim_; ++f) {
      const double var = variance_(c, f);
      const double d = row[f] - mean_(c, f);
      score += -0.5 * std::log(2.0 * std::numbers::pi * var) -
               d * d / (2.0 * var);
    }
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

std::vector<std::uint32_t> NaiveBayesClassifier::predict(
    const Matrix& x) const {
  std::vector<std::uint32_t> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = predict_one(x.data() + r * x.cols(), x.cols());
  }
  return out;
}

std::size_t NaiveBayesClassifier::memory_bytes() const {
  return (mean_.size() + variance_.size() + log_prior_.size()) *
         sizeof(double);
}

}  // namespace ssdk::nn
