#include "core/waiting_function.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tdp {

double PowerLawWaitingFunction::lag_sum(double beta, std::size_t periods) {
  TDP_REQUIRE(periods >= 2, "need at least two periods for deferral");
  double s = 0.0;
  for (std::size_t t = 1; t < periods; ++t) {
    s += std::pow(static_cast<double>(t) + 1.0, -beta);
  }
  return s;
}

double PowerLawWaitingFunction::lag_integral(double beta,
                                             std::size_t periods) {
  TDP_REQUIRE(periods >= 2, "need at least two periods for deferral");
  const double n = static_cast<double>(periods);
  if (beta == 1.0) return std::log(n);
  return (std::pow(n, 1.0 - beta) - 1.0) / (1.0 - beta);
}

PowerLawWaitingFunction::PowerLawWaitingFunction(
    double beta, std::size_t periods, double max_reward, double gamma,
    LagNormalization normalization)
    : beta_(beta), gamma_(gamma), periods_(periods) {
  TDP_REQUIRE(beta >= 0.0, "patience index must be nonnegative");
  TDP_REQUIRE(max_reward > 0.0, "max reward must be positive");
  TDP_REQUIRE(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
  const double mass = normalization == LagNormalization::kDiscrete
                          ? lag_sum(beta, periods)
                          : lag_integral(beta, periods);
  normalization_ = 1.0 / (std::pow(max_reward, gamma) * mass);
  TDP_REQUIRE(std::isfinite(normalization_) && normalization_ > 0.0,
              "power-law normalization must be finite and positive");

  // integrate_gauss(f, lag - 1, lag, 1) evaluates f at mid + half * x_k
  // with h = 1, so mid = (lag - 1) + 0.5 and half = 0.5, every step exact.
  constexpr std::size_t kNodes = math::kGauss8Nodes.size();
  lag_pow_.assign(periods, 0.0);
  node_pow_.assign(periods * kNodes, 0.0);
  unit_start_.assign(periods, 0.0);
  unit_uniform_.assign(periods, 0.0);
  for (std::size_t lag = 1; lag < periods; ++lag) {
    const double t = static_cast<double>(lag);
    lag_pow_[lag] = std::pow(t + 1.0, -beta);
    const double mid = (t - 1.0) + 0.5;
    for (std::size_t k = 0; k < kNodes; ++k) {
      const double u = mid + 0.5 * math::kGauss8Nodes[k];
      node_pow_[lag * kNodes + k] = std::pow(u + 1.0, -beta);
    }
    // value(1, lag) and its uniform-arrival average: 1^gamma is exactly 1.
    unit_start_[lag] = normalization_ * lag_pow_[lag];
    unit_uniform_[lag] = gauss_average(normalization_, lag);
  }
}

double PowerLawWaitingFunction::value(double reward, double lag) const {
  TDP_REQUIRE(lag >= 0.0, "lag must be nonnegative");
  if (reward <= 0.0) return 0.0;
  return normalization_ * std::pow(reward, gamma_) *
         std::pow(lag + 1.0, -beta_);
}

double PowerLawWaitingFunction::reward_derivative(double reward,
                                                  double lag) const {
  TDP_REQUIRE(lag >= 0.0, "lag must be nonnegative");
  if (reward < 0.0) reward = 0.0;
  if (gamma_ == 1.0) {
    return normalization_ * std::pow(lag + 1.0, -beta_);
  }
  if (reward == 0.0) {
    // The concave p^gamma has unbounded slope at 0; cap for optimizer use.
    reward = 1e-12;
  }
  return normalization_ * gamma_ * std::pow(reward, gamma_ - 1.0) *
         std::pow(lag + 1.0, -beta_);
}

}  // namespace tdp
