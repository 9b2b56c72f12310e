#include "math/piecewise_linear.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tdp::math {
namespace {

/// Smoothed hinge h_mu(y) ~ max(y, 0).
double smooth_hinge(double y, double mu) {
  if (y <= 0.0) return 0.0;
  if (y >= mu) return y - 0.5 * mu;
  return y * y / (2.0 * mu);
}

/// d/dy of smooth_hinge.
double smooth_hinge_derivative(double y, double mu) {
  if (y <= 0.0) return 0.0;
  if (y >= mu) return 1.0;
  return y / mu;
}

}  // namespace

PiecewiseLinearCost::PiecewiseLinearCost(double base_slope,
                                         std::vector<Hinge> hinges,
                                         double value_at_zero)
    : base_slope_(base_slope),
      value_at_zero_(value_at_zero),
      hinges_(std::move(hinges)) {
  for (const Hinge& h : hinges_) {
    TDP_REQUIRE(h.slope_jump >= 0.0,
                "hinge slope jumps must be nonnegative for convexity");
  }
  std::sort(hinges_.begin(), hinges_.end(),
            [](const Hinge& a, const Hinge& b) {
              return a.breakpoint < b.breakpoint;
            });
}

PiecewiseLinearCost PiecewiseLinearCost::hinge(double slope,
                                               double breakpoint) {
  TDP_REQUIRE(slope >= 0.0, "hinge slope must be nonnegative");
  return PiecewiseLinearCost(0.0, {{breakpoint, slope}}, 0.0);
}

double PiecewiseLinearCost::derivative_right(double x) const {
  double s = base_slope_;
  for (const Hinge& h : hinges_) {
    if (x >= h.breakpoint) s += h.slope_jump;
  }
  return s;
}

double PiecewiseLinearCost::derivative_left(double x) const {
  double s = base_slope_;
  for (const Hinge& h : hinges_) {
    if (x > h.breakpoint) s += h.slope_jump;
  }
  return s;
}

double PiecewiseLinearCost::smoothed_value(double x, double mu) const {
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");
  double v = value_at_zero_ + base_slope_ * x;
  for (const Hinge& h : hinges_) {
    v += h.slope_jump * smooth_hinge(x - h.breakpoint, mu);
    const double y0 = -h.breakpoint;
    if (y0 > 0.0) v -= h.slope_jump * y0;
  }
  return v;
}

double PiecewiseLinearCost::smoothed_derivative(double x, double mu) const {
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");
  double s = base_slope_;
  for (const Hinge& h : hinges_) {
    s += h.slope_jump * smooth_hinge_derivative(x - h.breakpoint, mu);
  }
  return s;
}

double PiecewiseLinearCost::smoothing_gap(double mu) const {
  double total_jump = 0.0;
  for (const Hinge& h : hinges_) total_jump += h.slope_jump;
  return 0.5 * mu * total_jump;
}

double PiecewiseLinearCost::max_slope() const {
  double s = base_slope_;
  for (const Hinge& h : hinges_) s += h.slope_jump;
  return s;
}

PiecewiseLinearCost PiecewiseLinearCost::scaled(double factor) const {
  TDP_REQUIRE(factor >= 0.0, "scale factor must be nonnegative");
  std::vector<Hinge> scaled_hinges = hinges_;
  for (Hinge& h : scaled_hinges) h.slope_jump *= factor;
  return PiecewiseLinearCost(base_slope_ * factor, std::move(scaled_hinges),
                             value_at_zero_ * factor);
}

}  // namespace tdp::math
