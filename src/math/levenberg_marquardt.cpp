#include "math/levenberg_marquardt.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "math/matrix.hpp"
#include "math/numdiff.hpp"

namespace tdp::math {
namespace {

void project(Vector& x, const LmOptions& options) {
  if (options.lower_bounds) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = std::max(x[i], (*options.lower_bounds)[i]);
    }
  }
  if (options.upper_bounds) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = std::min(x[i], (*options.upper_bounds)[i]);
    }
  }
}

}  // namespace

LmResult minimize_levenberg_marquardt(
    const std::function<Vector(const Vector&)>& residuals, Vector theta0,
    const LmOptions& options) {
  TDP_REQUIRE(static_cast<bool>(residuals), "residual function must be set");
  TDP_REQUIRE(!theta0.empty(), "need at least one parameter");
  if (options.lower_bounds) {
    TDP_REQUIRE(options.lower_bounds->size() == theta0.size(),
                "lower bound size mismatch");
  }
  if (options.upper_bounds) {
    TDP_REQUIRE(options.upper_bounds->size() == theta0.size(),
                "upper bound size mismatch");
  }

  Vector theta = std::move(theta0);
  project(theta, options);
  Vector r = residuals(theta);
  double cost = dot(r, r);
  double lambda = options.initial_lambda;

  LmResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const Matrix jac = numeric_jacobian(residuals, theta, r,
                                        options.jacobian_step);
    const Vector gradient = jac.multiply_transpose(r);  // J^T r
    if (norm_inf(gradient) < options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    Matrix normal = jac.gram();  // J^T J
    bool stepped = false;
    for (std::size_t attempt = 0; attempt < 25 && !stepped; ++attempt) {
      Matrix damped = normal;
      for (std::size_t i = 0; i < damped.rows(); ++i) {
        // Marquardt scaling: damp relative to the curvature of each axis.
        damped(i, i) += lambda * std::max(normal(i, i), 1e-12);
      }
      Vector delta;
      try {
        delta = solve_cholesky(damped, gradient);
      } catch (const NumericalError&) {
        lambda *= options.lambda_increase;
        continue;
      }
      Vector candidate = theta;
      axpy(-1.0, delta, candidate);
      project(candidate, options);
      const Vector r_new = residuals(candidate);
      const double cost_new = dot(r_new, r_new);
      if (cost_new < cost) {
        const double step_size = max_abs_diff(candidate, theta);
        theta = std::move(candidate);
        r = r_new;
        cost = cost_new;
        lambda = std::max(lambda * options.lambda_decrease, 1e-14);
        stepped = true;
        if (step_size < options.step_tolerance) {
          result.converged = true;
        }
      } else {
        lambda *= options.lambda_increase;
      }
    }
    if (!stepped || result.converged) {
      // No descent direction found at any damping => local optimum.
      result.converged = result.converged || !stepped;
      break;
    }
  }

  result.parameters = std::move(theta);
  result.residual_norm2 = cost;
  return result;
}

}  // namespace tdp::math
