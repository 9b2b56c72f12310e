#include "math/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tdp::math {

double dot(const Vector& a, const Vector& b) {
  TDP_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm_inf(const Vector& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

double sum(const Vector& a) {
  double acc = 0.0;
  for (double v : a) acc += v;
  return acc;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  TDP_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void project_box(Vector& x, double lo, double hi) {
  TDP_REQUIRE(lo <= hi, "project_box: bounds must be ordered");
  for (double& v : x) v = std::clamp(v, lo, hi);
}

void project_box(Vector& x, const Vector& lo, const Vector& hi) {
  TDP_REQUIRE(x.size() == lo.size() && x.size() == hi.size(),
              "project_box: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lo[i], hi[i]);
  }
}

double max_abs_diff(const Vector& a, const Vector& b) {
  TDP_REQUIRE(a.size() == b.size(), "max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace tdp::math
