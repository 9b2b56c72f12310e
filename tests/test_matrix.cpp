#include "math/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "math/numdiff.hpp"

namespace tdp::math {
namespace {

TEST(Matrix, BasicOps) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Vector x = {1.0, -1.0};
  const Vector y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);

  const Vector z = a.multiply_transpose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 4.0);
  EXPECT_DOUBLE_EQ(z[1], 6.0);

  const Matrix t = a.transpose();
  EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
}

TEST(Matrix, MultiplyAndGram) {
  const Matrix a = {{1.0, 0.0, 2.0}, {0.0, 3.0, -1.0}};
  const Matrix g = a.gram();  // A^T A, 3x3
  const Matrix expected = a.transpose().multiply(a);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(g(r, c), expected(r, c), 1e-12);
    }
  }
}

TEST(SolveLu, KnownSystem) {
  Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = solve_lu(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(SolveLu, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solve_lu(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLu, DetectsSingular) {
  Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(solve_lu(a, {1.0, 2.0}), NumericalError);
}

TEST(SolveCholesky, MatchesLuOnSpd) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(8);
    // SPD via B^T B + n I.
    Matrix b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
    }
    Matrix spd = b.gram();
    for (std::size_t i = 0; i < n; ++i) {
      spd(i, i) += static_cast<double>(n);
    }
    Vector rhs(n);
    for (double& v : rhs) v = rng.uniform(-2.0, 2.0);

    const Vector chol = solve_cholesky(spd, rhs);
    const Vector lu = solve_lu(spd, rhs);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(chol[i], lu[i], 1e-9);
    }
  }
}

TEST(SolveCholesky, RejectsIndefinite) {
  Matrix a = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(solve_cholesky(a, {1.0, 1.0}), NumericalError);
}

TEST(LeastSquares, ExactOnSquare) {
  Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = solve_least_squares(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-10);
  EXPECT_NEAR(x[1], 1.4, 1e-10);
}

TEST(LeastSquares, OverdeterminedResidualOrthogonality) {
  // Fit y = c0 + c1 t to noisy points; residual must be orthogonal to the
  // column space (the defining property of the LS solution).
  Rng rng(7);
  const std::size_t m = 40;
  Matrix a(m, 2);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double t = static_cast<double>(i) / 10.0;
    a(i, 0) = 1.0;
    a(i, 1) = t;
    b[i] = 2.0 + 0.5 * t + rng.normal(0.0, 0.1);
  }
  const Matrix a_copy = a;
  const Vector b_copy = b;
  const Vector x = solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 2.0, 0.1);
  EXPECT_NEAR(x[1], 0.5, 0.05);

  Vector residual = a_copy.multiply(x);
  for (std::size_t i = 0; i < m; ++i) residual[i] -= b_copy[i];
  const Vector gram_residual = a_copy.multiply_transpose(residual);
  EXPECT_NEAR(gram_residual[0], 0.0, 1e-9);
  EXPECT_NEAR(gram_residual[1], 0.0, 1e-9);
}

TEST(LeastSquares, DetectsRankDeficiency) {
  Matrix a = {{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_THROW(solve_least_squares(a, {1.0, 2.0, 3.0}), NumericalError);
}

TEST(NumDiff, GradientOfQuadratic) {
  const auto f = [](const Vector& x) {
    return x[0] * x[0] + 3.0 * x[0] * x[1] + 2.0 * x[1] * x[1];
  };
  const Vector g = numeric_gradient(f, {1.0, 2.0});
  EXPECT_NEAR(g[0], 2.0 + 6.0, 1e-6);
  EXPECT_NEAR(g[1], 3.0 + 8.0, 1e-6);
}

TEST(NumDiff, JacobianOfLinearMap) {
  const auto r = [](const Vector& x) {
    return Vector{2.0 * x[0] - x[1], x[0] + 4.0 * x[1]};
  };
  const Vector x = {0.3, -0.7};
  const Matrix j = numeric_jacobian(r, x, r(x));
  EXPECT_NEAR(j(0, 0), 2.0, 1e-6);
  EXPECT_NEAR(j(0, 1), -1.0, 1e-6);
  EXPECT_NEAR(j(1, 0), 1.0, 1e-6);
  EXPECT_NEAR(j(1, 1), 4.0, 1e-6);
}

TEST(NumDiff, JacobianRejectsEmptyPointAndMismatchedResidual) {
  const auto r = [](const Vector& x) {
    return Vector(x.empty() ? 1 : x.size(), 1.0);
  };
  // An empty point has no coordinate to probe.
  EXPECT_THROW(numeric_jacobian(r, Vector{}, Vector{1.0}), PreconditionError);
  // The residual held at x must have the length the probes return.
  EXPECT_THROW(numeric_jacobian(r, Vector{0.5, 0.5}, Vector{1.0}),
               PreconditionError);
}

}  // namespace
}  // namespace tdp::math
