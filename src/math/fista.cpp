#include "math/fista.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace tdp::math {

BoxBounds uniform_box(std::size_t n, double lo, double hi) {
  TDP_REQUIRE(lo <= hi, "box bounds must be ordered");
  return BoxBounds{Vector(n, lo), Vector(n, hi)};
}

FistaResult minimize_box(const SmoothObjective& objective,
                         const BoxBounds& bounds, Vector x0,
                         const FistaOptions& options) {
  TDP_REQUIRE(static_cast<bool>(objective.value) &&
                  (static_cast<bool>(objective.gradient) ||
                   static_cast<bool>(objective.value_and_gradient)),
              "objective callbacks must be set");
  TDP_REQUIRE(x0.size() == bounds.lower.size() &&
                  x0.size() == bounds.upper.size(),
              "bounds must match variable count");
  TDP_REQUIRE(options.initial_lipschitz > 0.0 &&
                  options.backtrack_factor > 1.0,
              "invalid line-search parameters");

  const std::size_t n = x0.size();
  project_box(x0, bounds.lower, bounds.upper);

  Vector x = x0;        // current iterate
  Vector x_prev = x0;   // previous iterate (for momentum)
  Vector y = x0;        // extrapolated point
  Vector grad(n, 0.0);
  Vector candidate(n, 0.0);

  double lipschitz = options.initial_lipschitz;
  double momentum_t = 1.0;
  double fx = objective.value(x);

  FistaResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double fy = 0.0;
    if (objective.value_and_gradient) {
      fy = objective.value_and_gradient(y, grad);
    } else {
      fy = objective.value(y);
      objective.gradient(y, grad);
    }

    // Backtracking: find L such that the quadratic model at y upper-bounds
    // the objective at the projected step.
    double f_candidate = 0.0;
    for (;;) {
      for (std::size_t i = 0; i < n; ++i) {
        candidate[i] = std::clamp(y[i] - grad[i] / lipschitz,
                                  bounds.lower[i], bounds.upper[i]);
      }
      f_candidate = objective.value(candidate);
      double linear = 0.0;
      double quad = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = candidate[i] - y[i];
        linear += grad[i] * d;
        quad += d * d;
      }
      if (f_candidate <= fy + linear + 0.5 * lipschitz * quad + 1e-14 ||
          lipschitz > 1e18) {
        break;
      }
      lipschitz *= options.backtrack_factor;
      ++result.backtracks;
    }

    const double step_norm = max_abs_diff(candidate, y);

    x_prev = x;
    x = candidate;

    // Monotone safeguard: FISTA is not monotone; if the new point is worse
    // than the previous iterate, restart momentum from the better point.
    const double f_new = f_candidate;
    if (options.accelerated && f_new > fx) {
      momentum_t = 1.0;
      y = x;
    } else if (options.accelerated) {
      const double t_next =
          0.5 * (1.0 + std::sqrt(1.0 + 4.0 * momentum_t * momentum_t));
      const double beta = (momentum_t - 1.0) / t_next;
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = std::clamp(x[i] + beta * (x[i] - x_prev[i]), bounds.lower[i],
                          bounds.upper[i]);
      }
      momentum_t = t_next;
    } else {
      y = x;
    }
    fx = std::min(fx, f_new);

    result.iterations = iter + 1;
    if (step_norm <= options.step_tolerance) {
      result.converged = true;
      break;
    }
    lipschitz = std::max(options.initial_lipschitz,
                         lipschitz * options.lipschitz_decay);
  }

  result.x = std::move(x);
  result.value = objective.value(result.x);

  // Solver telemetry: totals only, bumped once per solve so the iteration
  // loop itself stays untouched.
  static obs::Counter& solves =
      obs::Registry::global().counter("fista.solves_total");
  static obs::Counter& iterations =
      obs::Registry::global().counter("fista.iterations_total");
  static obs::Counter& backtracks =
      obs::Registry::global().counter("fista.backtracks_total");
  static obs::Counter& failures =
      obs::Registry::global().counter("fista.nonconverged_total");
  solves.add(1);
  iterations.add(result.iterations);
  backtracks.add(result.backtracks);
  if (!result.converged) failures.add(1);
  return result;
}

}  // namespace tdp::math
