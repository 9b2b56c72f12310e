// The static session model (Section II, Props. 1-3).
//
// Variables are the per-period rewards p_i >= 0. Usage obeys the flow
// balance (eq. 2)
//
//   x_i = X_i - sum_{j in i} v_j sum_{k != i} w_j(p_k, k-i)
//             + sum_{k != i} sum_{j in k} v_j w_j(p_i, i-k),
//
// and the ISP minimizes (eq. 1)
//
//   C(p) = sum_i [ p_i * (traffic deferred into i) + f(x_i - A_i) ].
//
// With waiting functions concave increasing in p and f piecewise linear this
// is convex (Prop. 3); the optimizer minimizes a Huber-smoothed version of
// f with an analytic gradient and drives the smoothing to zero.
#pragma once

#include <cstddef>
#include <vector>

#include "core/deferral_kernel.hpp"
#include "core/demand_profile.hpp"
#include "core/kernel_plan.hpp"
#include "math/piecewise_linear.hpp"
#include "math/vector_ops.hpp"

namespace tdp {

class StaticModel {
 public:
  /// @param demand        per-period TIP demand mixes.
  /// @param capacity      A_i per period (demand units); size must equal
  ///                      demand.periods().
  /// @param capacity_cost f, applied to (x_i - A_i) in every period.
  StaticModel(DemandProfile demand, std::vector<double> capacity,
              math::PiecewiseLinearCost capacity_cost);

  /// Convenience: constant capacity in every period.
  StaticModel(DemandProfile demand, double capacity,
              math::PiecewiseLinearCost capacity_cost);

  std::size_t periods() const { return demand_.periods(); }
  const DemandProfile& demand() const { return demand_; }
  const std::vector<double>& capacity() const { return capacity_; }
  const math::PiecewiseLinearCost& capacity_cost() const { return cost_; }

  /// P: the maximum rational reward = max marginal cost of exceeding
  /// capacity (Appendix C's argument). Used as the optimizer's box bound
  /// and as the waiting-function normalization point.
  double max_reward() const { return cost_.max_slope(); }

  /// Traffic deferred into period i when its reward is p_i (demand units).
  double deferred_in(std::size_t into, double reward) const;

  /// Traffic deferred out of period i under the full reward vector.
  double deferred_out(std::size_t from, const math::Vector& rewards) const;

  /// x_i for all periods under the reward vector (eq. 2).
  math::Vector usage(const math::Vector& rewards) const;

  /// sum_i p_i * deferred_in(i, p_i).
  double reward_cost(const math::Vector& rewards) const;

  /// sum_i f(x_i - A_i) for a given usage vector.
  double capacity_cost_value(const math::Vector& usage) const;

  /// Exact objective C(p) (eq. 1).
  double total_cost(const math::Vector& rewards) const;

  /// Cost with no rewards offered — the TIP baseline.
  double tip_cost() const;

  /// Objective with f replaced by its mu-smoothed version.
  double smoothed_cost(const math::Vector& rewards, double mu) const;

  /// Analytic gradient of smoothed_cost (grad pre-sized to periods()).
  void smoothed_gradient(const math::Vector& rewards, double mu,
                         math::Vector& grad) const;

  /// The pairwise deferral kernel (period-start lag convention).
  const DeferralKernel& kernel() const { return kernel_; }

  // ---- Fused fast path (core/kernel_plan) --------------------------------
  // These overloads evaluate through the kernel's structure-of-arrays plan
  // with a caller-owned FlowState scratch. Every result is bitwise
  // identical to the reference method of the same name; the reference path
  // stays as the oracle (tests/test_kernel_plan.cpp).

  /// Fill `state` with the deferral flows at `rewards`.
  void prime_flow_state(const math::Vector& rewards, bool with_derivatives,
                        FlowState& state) const;

  /// usage via the plan; primes `state` at `rewards` (no derivatives).
  math::Vector usage(const math::Vector& rewards, FlowState& state) const;

  /// reward_cost read off an already-primed `state`.
  double reward_cost(const FlowState& state) const;

  /// smoothed_cost via the plan; primes `state` at `rewards`.
  double smoothed_cost(const math::Vector& rewards, double mu,
                       FlowState& state) const;

  /// smoothed_cost and its gradient in one flow evaluation (the reference
  /// path recomputes the flows for the value and again for the gradient).
  double smoothed_cost_and_gradient(const math::Vector& rewards, double mu,
                                    math::Vector& grad,
                                    FlowState& state) const;

 private:
  DemandProfile demand_;
  std::vector<double> capacity_;
  math::PiecewiseLinearCost cost_;
  DeferralKernel kernel_;
  math::Vector tip_;  ///< cached tip_demand_vector() for the fast path
};

}  // namespace tdp
