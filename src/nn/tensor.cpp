#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace ssdk::nn {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    assert(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

void Matrix::axpy(double s, const Matrix& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += s * other.data_[i];
  }
}

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  out = Matrix(a.rows(), b.cols());
  matmul_into(a, b, out);
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  assert(&out != &a && &out != &b);
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    out = Matrix(a.rows(), b.cols());
  } else {
    out.zero();
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  std::size_t i = 0;
  // Four batch rows share one streaming pass over b: each b row is read
  // from cache once per block instead of once per sample. Every output
  // row still accumulates in ascending p with the same zero skip, so the
  // result is bit-identical to the row-at-a-time tail loop below.
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a.data() + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* o0 = out.data() + i * n;
    double* o1 = o0 + n;
    double* o2 = o1 + n;
    double* o3 = o2 + n;
    for (std::size_t p = 0; p < k; ++p) {
      const double* b_row = b.data() + p * n;
      const double c0 = a0[p], c1 = a1[p], c2 = a2[p], c3 = a3[p];
      if (c0 != 0.0) {
        for (std::size_t j = 0; j < n; ++j) o0[j] += c0 * b_row[j];
      }
      if (c1 != 0.0) {
        for (std::size_t j = 0; j < n; ++j) o1[j] += c1 * b_row[j];
      }
      if (c2 != 0.0) {
        for (std::size_t j = 0; j < n; ++j) o2[j] += c2 * b_row[j];
      }
      if (c3 != 0.0) {
        for (std::size_t j = 0; j < n; ++j) o3[j] += c3 * b_row[j];
      }
    }
  }
  for (; i < m; ++i) {
    double* out_row = out.data() + i * n;
    const double* a_row = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = a_row[p];
      if (aip == 0.0) continue;
      const double* b_row = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += aip * b_row[j];
    }
  }
}

void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  out = Matrix(a.cols(), b.cols());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (std::size_t p = 0; p < k; ++p) {
    const double* a_row = a.data() + p * m;
    const double* b_row = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double aip = a_row[i];
      if (aip == 0.0) continue;
      double* out_row = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += aip * b_row[j];
    }
  }
}

void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  out = Matrix(a.rows(), b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a.data() + i * k;
    double* out_row = out.data() + i * n;
    std::size_t j = 0;
    // Four output columns per pass, one accumulator each: four independent
    // add chains instead of one. Every element still sums from 0.0 in
    // ascending p, so the result is bit-identical to the tail loop below.
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b.data() + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double ap = a_row[p];
        acc0 += ap * b0[p];
        acc1 += ap * b1[p];
        acc2 += ap * b2[p];
        acc3 += ap * b3[p];
      }
      out_row[j] = acc0;
      out_row[j + 1] = acc1;
      out_row[j + 2] = acc2;
      out_row[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const double* b_row = b.data() + j * k;
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      out_row[j] = acc;
    }
  }
}

void add_row_broadcast(Matrix& m, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias(0, c);
  }
}

void column_sums(const Matrix& m, Matrix& out) {
  out = Matrix(1, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) out(0, c) += row[c];
  }
}

void hadamard(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.same_shape(b));
  out = Matrix(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.raw()[i] = a.raw()[i] * b.raw()[i];
  }
}

double frobenius_norm(const Matrix& m) {
  double acc = 0.0;
  for (double v : m.raw()) acc += v * v;
  return std::sqrt(acc);
}

}  // namespace ssdk::nn
