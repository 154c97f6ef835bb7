#include "nn/knn.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace ssdk::nn {

KnnClassifier::KnnClassifier(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("knn: k must be positive");
}

void KnnClassifier::fit(const Dataset& train) {
  if (train.empty()) throw std::invalid_argument("knn: empty training set");
  train_ = train;
}

std::uint32_t KnnClassifier::predict_one(const double* row,
                                         std::size_t dim) const {
  if (!fitted()) throw std::logic_error("knn: predict before fit");
  if (dim != train_.feature_dim()) {
    throw std::invalid_argument("knn: feature dim mismatch");
  }

  const std::size_t n = train_.size();
  const std::size_t k = std::min(k_, n);

  // Partial selection of the k smallest distances.
  std::vector<std::pair<double, std::uint32_t>> dist;
  dist.reserve(n);
  const Matrix& f = train_.features();
  for (std::size_t i = 0; i < n; ++i) {
    const double* t = f.data() + i * dim;
    double d2 = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      const double d = row[c] - t[c];
      d2 += d * d;
    }
    dist.emplace_back(d2, train_.labels()[i]);
  }
  std::nth_element(dist.begin(),
                   dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dist.end());

  std::map<std::uint32_t, std::size_t> votes;
  for (std::size_t i = 0; i < k; ++i) ++votes[dist[i].second];
  std::uint32_t best = votes.begin()->first;
  std::size_t best_count = votes.begin()->second;
  for (const auto& [cls, count] : votes) {
    if (count > best_count) {
      best = cls;
      best_count = count;
    }
  }
  return best;
}

std::vector<std::uint32_t> KnnClassifier::predict(const Matrix& x) const {
  std::vector<std::uint32_t> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = predict_one(x.data() + r * x.cols(), x.cols());
  }
  return out;
}

std::size_t KnnClassifier::memory_bytes() const {
  return train_.features().size() * sizeof(double) +
         train_.labels().size() * sizeof(std::uint32_t);
}

}  // namespace ssdk::nn
