// Waiting functions (Sections II and IV).
//
// A waiting function w(p, t) gives the probability that a session defers by
// t periods when offered reward p. The paper's canonical parametrized family
// is the power law
//
//   w_beta(p, t) = C_beta * p / (t + 1)^beta,
//
// where beta >= 0 is the "patience index" (larger beta = less patient) and
// C_beta normalizes so that at the maximum rational reward P (the maximum
// marginal cost of exceeding capacity) the deferral probabilities over all
// lags t = 1..n-1 sum to one:  sum_t w(P, t) = 1.
//
// We expose an abstract interface so tests and extensions can plug in other
// concave-increasing-in-p families (Prop. 3 only needs concavity in p).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace tdp {

/// Interface for a (normalized) waiting function.
class WaitingFunction {
 public:
  virtual ~WaitingFunction() = default;

  /// Deferral probability for reward p (>= 0) and continuous lag t (>= 0,
  /// measured in periods). t is continuous because the dynamic model
  /// averages over arrival times within a period.
  virtual double value(double reward, double lag) const = 0;

  /// Partial derivative of value with respect to the reward.
  virtual double reward_derivative(double reward, double lag) const = 0;

  /// Human-readable tag used in diagnostics (e.g. "beta=1.5").
  virtual std::string_view label() const = 0;

  /// True when value(p, t) is linear in p for fixed t. Models exploit this
  /// to precompute unit-reward deferral coefficients (the paper's family
  /// with gamma = 1 is linear). Default: false (conservative).
  virtual bool is_linear_in_reward() const { return false; }
};

using WaitingFunctionPtr = std::shared_ptr<const WaitingFunction>;

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

/// The paper's power-law family C * p^gamma / (t+1)^beta. gamma = 1 is the
/// paper's linear-in-reward choice; gamma in (0, 1) gives strictly concave
/// reward sensitivity (still admissible under Prop. 3).
class PowerLawWaitingFunction final : public WaitingFunction {
 public:
  /// @param beta          patience index (>= 0); larger = less patient.
  /// @param periods       n, the number of periods in the day.
  /// @param max_reward    P, the maximum rational reward (normalization).
  /// @param gamma         reward exponent in (0, 1].
  /// @param normalization discrete (static) or continuous (dynamic) lags.
  PowerLawWaitingFunction(
      double beta, std::size_t periods, double max_reward, double gamma = 1.0,
      LagNormalization normalization = LagNormalization::kDiscrete);

  double value(double reward, double lag) const override;
  double reward_derivative(double reward, double lag) const override;
  std::string_view label() const override { return label_; }
  bool is_linear_in_reward() const override { return gamma_ == 1.0; }

  double beta() const { return beta_; }
  double gamma() const { return gamma_; }
  double normalization() const { return normalization_; }

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
  std::string label_;
};

/// Adapter wrapping arbitrary callables (used by tests).
class CallableWaitingFunction final : public WaitingFunction {
 public:
  using Fn = std::function<double(double reward, double lag)>;

  /// `derivative` may be empty, in which case a central difference is used.
  CallableWaitingFunction(Fn fn, Fn derivative = nullptr,
                          std::string label = "callable");

  double value(double reward, double lag) const override;
  double reward_derivative(double reward, double lag) const override;
  std::string_view label() const override { return label_; }

 private:
  Fn fn_;
  Fn derivative_;
  std::string label_;
};

}  // namespace tdp
