// Waiting functions (Sections II and IV).
//
// A waiting function w(p, t) gives the probability that a session defers by
// t periods when offered reward p. The paper prices (§II–III) and estimates
// (§IV) with one parametrized family, the power law
//
//   w_beta(p, t) = C_beta * p / (t + 1)^beta,
//
// where beta >= 0 is the "patience index" (larger beta = less patient) and
// C_beta normalizes so that at the maximum rational reward P (the maximum
// marginal cost of exceeding capacity) the deferral probabilities over all
// lags t = 1..n-1 sum to one:  sum_t w(P, t) = 1. A reward exponent gamma in
// (0, 1) (p^gamma instead of p) gives the strictly concave variant Prop. 3
// admits.
//
// A function is built for one day of n periods and owns its lag powers for
// the whole-period lags 1..n-1: (lag+1)^-beta, the eight Gauss-node powers
// of the uniform-arrival average (math::integrate_gauss's abscissae on
// [lag-1, lag], reproduced operation for operation) and the unit-reward
// weights under both lag conventions. The deferral kernel, its evaluation
// plan and the fleet's deferral tables all read them from here, so each
// power is computed once per function; every weight read from a table is
// bitwise the quadrature reference, lag_weight (core/deferral_kernel).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "math/quadrature.hpp"

namespace tdp {

/// How the power-law normalization constant is computed.
///
/// kDiscrete sums over the integer lags t = 1..n-1 (static model: sessions
/// start at period boundaries). kContinuous integrates over waits in
/// [0, n-1] (dynamic model: uniform arrival times make the effective wait
/// continuous). Matching the normalization to the model's lag convention
/// keeps every deferral probability in [0, 1] and the total deferral
/// fraction at most reward/P — the integer-grid normalization applied to
/// continuous waits (the paper's literal formulas) exceeds 1 for impatient
/// classes at short lags.
enum class LagNormalization { kDiscrete, kContinuous };

/// How a whole-period lag L turns into a waiting weight (Prop. 5):
///
///   kPeriodStart:    sessions start at the period boundary; the weight is
///                    w(p, L) (static model, Section II);
///   kUniformArrival: arrival times are uniform within the period, so the
///                    weight is the average integral_{L-1}^{L} w(p, u) du
///                    (dynamic model, Appendix F).
enum class LagConvention { kPeriodStart, kUniformArrival };

/// The paper's power-law family C * p^gamma / (t+1)^beta. gamma = 1 is the
/// paper's linear-in-reward choice; gamma in (0, 1) gives strictly concave
/// reward sensitivity (still admissible under Prop. 3).
class PowerLawWaitingFunction {
 public:
  /// @param beta          patience index (>= 0); larger = less patient.
  /// @param periods       n, the number of periods in the day.
  /// @param max_reward    P, the maximum rational reward (normalization).
  /// @param gamma         reward exponent in (0, 1].
  /// @param normalization discrete (static) or continuous (dynamic) lags.
  /// Throws PreconditionError unless C comes out finite and positive (an
  /// infinite beta, or one whose lag sum underflows to 0, does not).
  PowerLawWaitingFunction(
      double beta, std::size_t periods, double max_reward, double gamma = 1.0,
      LagNormalization normalization = LagNormalization::kDiscrete);

  /// Deferral probability for reward p (>= 0) and continuous lag t (>= 0,
  /// measured in periods). t is continuous because the dynamic model
  /// averages over arrival times within a period.
  double value(double reward, double lag) const;

  /// Partial derivative of value with respect to the reward.
  double reward_derivative(double reward, double lag) const;

  /// True when value(p, t) is linear in p (gamma = 1): models then
  /// evaluate through the unit-reward weights alone.
  bool is_linear_in_reward() const { return gamma_ == 1.0; }

  double beta() const { return beta_; }
  double gamma() const { return gamma_; }
  double normalization() const { return normalization_; }
  std::size_t periods() const { return periods_; }

  /// (lag+1)^-beta for a whole-period lag in [1, n).
  double lag_power(std::size_t lag) const { return lag_pow_[lag]; }

  /// The uniform-arrival average of factor * (u+1)^-beta over [lag-1, lag]
  /// for a lag in [1, n): integrate_gauss's one-segment arithmetic on the
  /// tabulated node powers, whose half-width is exactly 0.5. With factor
  /// C * p^gamma (p > 0) it is lag_weight(*this, p, lag, kUniformArrival)
  /// bit for bit, at one pow instead of eight through the quadrature.
  double gauss_average(double factor, std::size_t lag) const {
    const double* nodes = &node_pow_[lag * math::kGauss8Nodes.size()];
    double acc = 0.0;
    for (std::size_t k = 0; k < math::kGauss8Nodes.size(); ++k) {
      acc += math::kGauss8Weights[k] * (factor * nodes[k]);
    }
    return acc * 0.5;
  }

  /// Unit-reward weights lag_weight(*this, 1.0, lag, convention) indexed
  /// by lag in [1, n); entry 0 is 0 (from == to is never a deferral).
  const double* unit_weights(LagConvention convention) const {
    return convention == LagConvention::kPeriodStart ? unit_start_.data()
                                                     : unit_uniform_.data();
  }

  /// The unnormalized sum S(beta) = sum_{t=1..n-1} (t+1)^-beta used by the
  /// discrete normalization C = 1 / (P^gamma * S). Exposed for the
  /// estimator.
  static double lag_sum(double beta, std::size_t periods);

  /// The continuous counterpart: integral_0^{n-1} (u+1)^-beta du.
  static double lag_integral(double beta, std::size_t periods);

 private:
  double beta_;
  double gamma_;
  double normalization_;  // C
  std::size_t periods_;
  std::vector<double> lag_pow_;       ///< [lag]; lag 0 unused
  std::vector<double> node_pow_;      ///< [lag * 8 + k]; lag 0 unused
  std::vector<double> unit_start_;    ///< [lag], kPeriodStart
  std::vector<double> unit_uniform_;  ///< [lag], kUniformArrival
};

using WaitingFunctionPtr = std::shared_ptr<const PowerLawWaitingFunction>;

}  // namespace tdp
