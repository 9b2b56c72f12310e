// Dense row-major matrix with the factorizations the TDP library needs:
// LU with partial pivoting (square solves), Cholesky (SPD solves inside
// Levenberg-Marquardt), and Householder QR least squares (overdetermined
// systems in the waiting-function estimator).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "math/vector_ops.hpp"

namespace tdp::math {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested initializer lists (rows of equal width).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Matrix-vector product (x.size() must equal cols()).
  Vector multiply(const Vector& x) const;

  /// Transposed matrix-vector product (x.size() must equal rows()).
  Vector multiply_transpose(const Vector& x) const;

  /// Matrix-matrix product.
  Matrix multiply(const Matrix& other) const;

  Matrix transpose() const;

  /// A^T * A (Gram matrix), used by normal equations.
  Matrix gram() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b for square A via LU with partial pivoting.
/// Throws NumericalError if A is (numerically) singular.
Vector solve_lu(Matrix a, Vector b);

/// Solve A x = b for symmetric positive definite A via Cholesky.
/// Throws NumericalError if A is not SPD.
Vector solve_cholesky(Matrix a, Vector b);

/// Least-squares solve min ||A x - b||_2 for rows >= cols via Householder QR.
/// Throws NumericalError on rank deficiency.
Vector solve_least_squares(Matrix a, Vector b);

}  // namespace tdp::math
