#include "math/matrix.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tdp::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    TDP_REQUIRE(row.size() == cols_, "all rows must have equal width");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Vector Matrix::multiply(const Vector& x) const {
  TDP_REQUIRE(x.size() == cols_, "multiply: dimension mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

Vector Matrix::multiply_transpose(const Vector& x) const {
  TDP_REQUIRE(x.size() == rows_, "multiply_transpose: dimension mismatch");
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) y[c] += (*this)(r, c) * x[r];
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& other) const {
  TDP_REQUIRE(cols_ == other.rows_, "multiply: dimension mismatch");
  Matrix out(rows_, other.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix out(cols_, cols_, 0.0);
  for (std::size_t k = 0; k < rows_; ++k) {
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a = (*this)(k, i);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < cols_; ++j) {
        out(i, j) += a * (*this)(k, j);
      }
    }
  }
  return out;
}

Vector solve_lu(Matrix a, Vector b) {
  TDP_REQUIRE(a.rows() == a.cols(), "solve_lu: matrix must be square");
  TDP_REQUIRE(a.rows() == b.size(), "solve_lu: rhs size mismatch");
  const std::size_t n = a.rows();

  // In-place LU with partial pivoting, applying row swaps to b directly.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double candidate = std::abs(a(r, col));
      if (candidate > best) {
        best = candidate;
        pivot = r;
      }
    }
    if (best < 1e-13) {
      throw NumericalError("solve_lu: matrix is numerically singular");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      a(r, col) = 0.0;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) {
        a(r, c) -= factor * a(col, c);
      }
      b[r] -= factor * b[col];
    }
  }

  // Back substitution.
  Vector x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

Vector solve_cholesky(Matrix a, Vector b) {
  TDP_REQUIRE(a.rows() == a.cols(), "solve_cholesky: matrix must be square");
  TDP_REQUIRE(a.rows() == b.size(), "solve_cholesky: rhs size mismatch");
  const std::size_t n = a.rows();

  // Lower-triangular factor stored in place.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0) {
      throw NumericalError("solve_cholesky: matrix is not positive definite");
    }
    a(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= a(i, k) * a(j, k);
      a(i, j) = acc / a(j, j);
    }
  }

  // Forward solve L y = b.
  Vector y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= a(i, k) * y[k];
    y[i] = acc / a(i, i);
  }
  // Backward solve L^T x = y.
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= a(k, ii) * x[k];
    x[ii] = acc / a(ii, ii);
  }
  return x;
}

Vector solve_least_squares(Matrix a, Vector b) {
  TDP_REQUIRE(a.rows() >= a.cols(),
              "solve_least_squares: system must not be underdetermined");
  TDP_REQUIRE(a.rows() == b.size(), "solve_least_squares: rhs size mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Householder QR applied to [A | b].
  for (std::size_t col = 0; col < n; ++col) {
    double norm = 0.0;
    for (std::size_t r = col; r < m; ++r) norm += a(r, col) * a(r, col);
    norm = std::sqrt(norm);
    if (norm < 1e-13) {
      throw NumericalError("solve_least_squares: rank-deficient matrix");
    }
    const double alpha = a(col, col) >= 0.0 ? -norm : norm;
    // Householder vector v, stored temporarily.
    Vector v(m - col, 0.0);
    v[0] = a(col, col) - alpha;
    for (std::size_t r = col + 1; r < m; ++r) v[r - col] = a(r, col);
    double vnorm2 = 0.0;
    for (double t : v) vnorm2 += t * t;
    if (vnorm2 < 1e-26) continue;  // column already triangular

    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and to b.
    for (std::size_t c = col; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t r = col; r < m; ++r) proj += v[r - col] * a(r, c);
      proj = 2.0 * proj / vnorm2;
      for (std::size_t r = col; r < m; ++r) a(r, c) -= proj * v[r - col];
    }
    double proj = 0.0;
    for (std::size_t r = col; r < m; ++r) proj += v[r - col] * b[r];
    proj = 2.0 * proj / vnorm2;
    for (std::size_t r = col; r < m; ++r) b[r] -= proj * v[r - col];
    a(col, col) = alpha;  // enforce exact triangular value
    for (std::size_t r = col + 1; r < m; ++r) a(r, col) = 0.0;
  }

  // Back substitution on the leading n x n triangle.
  Vector x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    if (std::abs(a(ri, ri)) < 1e-13) {
      throw NumericalError("solve_least_squares: rank-deficient matrix");
    }
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

}  // namespace tdp::math
