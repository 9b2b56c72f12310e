#include "core/waiting_function.hpp"

#include <cmath>
#include <sstream>

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
    : beta_(beta), gamma_(gamma) {
  TDP_REQUIRE(beta >= 0.0, "patience index must be nonnegative");
  TDP_REQUIRE(max_reward > 0.0, "max reward must be positive");
  TDP_REQUIRE(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
  const double mass = normalization == LagNormalization::kDiscrete
                          ? lag_sum(beta, periods)
                          : lag_integral(beta, periods);
  normalization_ = 1.0 / (std::pow(max_reward, gamma) * mass);
  std::ostringstream label;
  label << "beta=" << beta;
  if (gamma != 1.0) label << ",gamma=" << gamma;
  if (normalization == LagNormalization::kContinuous) label << ",cont";
  label_ = label.str();
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

CallableWaitingFunction::CallableWaitingFunction(Fn fn, Fn derivative,
                                                 std::string label)
    : fn_(std::move(fn)),
      derivative_(std::move(derivative)),
      label_(std::move(label)) {
  TDP_REQUIRE(static_cast<bool>(fn_), "callable must be set");
}

double CallableWaitingFunction::value(double reward, double lag) const {
  return fn_(reward, lag);
}

double CallableWaitingFunction::reward_derivative(double reward,
                                                  double lag) const {
  if (derivative_) return derivative_(reward, lag);
  const double h = 1e-7;
  return (fn_(reward + h, lag) - fn_(reward - h, lag)) / (2.0 * h);
}

}  // namespace tdp
