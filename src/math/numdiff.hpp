// Numerical differentiation helpers (central differences).
//
// Used by the Levenberg-Marquardt solver when no analytic Jacobian is
// supplied, and by the property tests that verify analytic gradients of the
// pricing models.
#pragma once

#include <functional>

#include "common/error.hpp"
#include "math/matrix.hpp"
#include "math/vector_ops.hpp"

namespace tdp::math {

/// Central-difference gradient of a scalar function.
inline Vector numeric_gradient(const std::function<double(const Vector&)>& f,
                               const Vector& x, double h = 1e-6) {
  Vector grad(x.size(), 0.0);
  Vector probe = x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double original = probe[i];
    probe[i] = original + h;
    const double fp = f(probe);
    probe[i] = original - h;
    const double fm = f(probe);
    probe[i] = original;
    grad[i] = (fp - fm) / (2.0 * h);
  }
  return grad;
}

/// Central-difference Jacobian of a vector-valued function r: R^n -> R^m
/// at a nonempty point x. `r_at_x` is r(x), which callers such as
/// Levenberg-Marquardt already hold; central differences read only its
/// length m.
inline Matrix numeric_jacobian(
    const std::function<Vector(const Vector&)>& r, const Vector& x,
    const Vector& r_at_x, double h = 1e-6) {
  TDP_REQUIRE(!x.empty(), "need at least one parameter");
  const std::size_t m = r_at_x.size();
  Vector probe = x;
  Matrix jac(m, x.size(), 0.0);
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double original = probe[j];
    probe[j] = original + h;
    const Vector rp = r(probe);
    probe[j] = original - h;
    const Vector rm = r(probe);
    probe[j] = original;
    TDP_REQUIRE(rp.size() == m && rm.size() == m,
                "residual length changed between evaluations");
    for (std::size_t i = 0; i < m; ++i) {
      jac(i, j) = (rp[i] - rm[i]) / (2.0 * h);
    }
  }
  return jac;
}

}  // namespace tdp::math
