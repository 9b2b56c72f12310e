// Small dense-vector helpers used by the optimizers.
//
// The TDP problems have at most a few hundred variables, so std::vector of
// double with free functions is the right level of machinery — no expression
// templates, no BLAS dependency.
#pragma once

#include <cstddef>
#include <vector>

namespace tdp::math {

using Vector = std::vector<double>;

/// Inner product. Sizes must match.
double dot(const Vector& a, const Vector& b);

/// Infinity norm.
double norm_inf(const Vector& a);

/// Sum of elements.
double sum(const Vector& a);

/// y += alpha * x (sizes must match).
void axpy(double alpha, const Vector& x, Vector& y);

/// Project x onto the box [lo, hi] element-wise (scalar bounds).
void project_box(Vector& x, double lo, double hi);

/// Project x onto element-wise bounds (vectors of matching size).
void project_box(Vector& x, const Vector& lo, const Vector& hi);

/// Maximum absolute element-wise difference.
double max_abs_diff(const Vector& a, const Vector& b);

}  // namespace tdp::math
