// Convex piecewise-linear cost functions and their Huber smoothing.
//
// The paper's capacity-exhaustion cost f is "linear or piecewise-linear,
// increasing, convex" (Prop. 3 and Appendix C); the canonical instance is
// f(x) = a * max(x, 0). We represent such functions as
//
//   f(x) = f(0) + s0 * x + sum_k d_k * max(x - b_k, 0),   d_k >= 0,
//
// i.e. a base slope plus nonnegative hinge (slope-jump) terms — closed under
// scaling and exactly the class Prop. 3 admits. Smoothing replaces each
// hinge max(y,0) with the standard one-sided quadratic blend
//
//   h_mu(y) = 0 (y<=0),  y^2/(2 mu) (0<y<mu),  y - mu/2 (y>=mu),
//
// which is convex, C^1, underestimates the hinge by at most mu/2 and has a
// 1/mu-Lipschitz derivative. The static-model optimizer minimizes the
// smoothed objective with FISTA and drives mu -> 0 by continuation.
#pragma once

#include <cstddef>
#include <vector>

namespace tdp::math {

class PiecewiseLinearCost {
 public:
  /// One kink: slope increases by `slope_jump` (>= 0) at `breakpoint`.
  struct Hinge {
    double breakpoint = 0.0;
    double slope_jump = 0.0;
  };

  /// f(x) = value_at_zero + base_slope*x + sum hinges. Hinges need not be
  /// sorted; slope jumps must be nonnegative (convexity).
  PiecewiseLinearCost(double base_slope, std::vector<Hinge> hinges,
                      double value_at_zero = 0.0);

  /// The paper's canonical cost a*max(x - b, 0).
  static PiecewiseLinearCost hinge(double slope, double breakpoint = 0.0);

  /// Exact value f(x). Inline: the dynamic model's fused cost calls it
  /// once per period of every golden-section candidate.
  double value(double x) const {
    double v = value_at_zero_ + base_slope_ * x;
    for (const Hinge& h : hinges_) {
      const double y = x - h.breakpoint;
      if (y > 0.0) v += h.slope_jump * y;
      // Keep f(0) exact: the representation anchors hinges at their raw
      // max(x-b, 0) value, so subtract the hinge's own contribution at x=0.
      const double y0 = -h.breakpoint;
      if (y0 > 0.0) v -= h.slope_jump * y0;
    }
    return v;
  }

  /// Right derivative f'(x+); equals the subgradient a.e.
  double derivative_right(double x) const;

  /// Left derivative f'(x-).
  double derivative_left(double x) const;

  /// Huber-smoothed value f_mu(x), mu > 0.
  double smoothed_value(double x, double mu) const;

  /// Derivative of the smoothed value (continuous in x).
  double smoothed_derivative(double x, double mu) const;

  /// Worst-case smoothing gap: 0 <= f(x) - f_mu(x) <= smoothing_gap(mu).
  double smoothing_gap(double mu) const;

  /// Largest slope of f — the paper's maximum marginal cost of exceeding
  /// capacity, which bounds the rational reward P.
  double max_slope() const;

  /// Smallest slope of f (slope at -infinity).
  double min_slope() const { return base_slope_; }

  /// f scaled by a >= 0 (used by the Fig. 6 cost sweep).
  PiecewiseLinearCost scaled(double factor) const;

  const std::vector<Hinge>& hinges() const { return hinges_; }
  double base_slope() const { return base_slope_; }

 private:
  double base_slope_ = 0.0;
  double value_at_zero_ = 0.0;
  std::vector<Hinge> hinges_;  // sorted by breakpoint
};

}  // namespace tdp::math
