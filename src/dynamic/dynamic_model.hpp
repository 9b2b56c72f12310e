// The offline dynamic session model (Section III-A, Props. 4-5).
//
// For a single bottleneck the dynamic model reduces to a fluid model
// (Prop. 5): arrivals within a period are uniformly distributed, the link
// serves up to A_i units of work per period, and *unserved work carries
// over* into the next period as backlog. The per-period cost is
//
//   C_i = p_i * (work deferred into i) + f(backlog at the end of i),
//
// where f(b N(i)) penalizes sessions still in the network at the period
// boundary. Deferral uses the uniform-arrival lag convention: a session
// arriving at offset u in its period and deferring by L periods waits
// L - 1 + u periods, so the aggregate weight is the integral of w over
// [L-1, L].
//
// The backlog recursion B_i = max(B_{i-1} + a_i(p) - A_i, 0) composes a
// nondecreasing convex hinge with affine functions of the rewards, so the
// total cost remains convex in p (for waiting functions linear/concave in
// p) and the smoothing + FISTA machinery of the static model carries over.
// The model is evaluated in day-cyclic steady state: the recursion is
// warmed up over several identical days and only the final day is costed.
#pragma once

#include <cstddef>
#include <vector>

#include "core/deferral_kernel.hpp"
#include "core/demand_profile.hpp"
#include "core/kernel_plan.hpp"
#include "math/piecewise_linear.hpp"
#include "math/vector_ops.hpp"

namespace tdp {

class DynamicModel {
 public:
  /// @param arrivals     work arriving in each period under TIP, by class
  ///                     (demand units of work per period).
  /// @param capacity     A_i: work the bottleneck can serve per period.
  /// @param backlog_cost f, applied to the end-of-period backlog.
  DynamicModel(DemandProfile arrivals, std::vector<double> capacity,
               math::PiecewiseLinearCost backlog_cost,
               std::size_t warmup_days = 6);

  DynamicModel(DemandProfile arrivals, double capacity,
               math::PiecewiseLinearCost backlog_cost,
               std::size_t warmup_days = 6);

  /// This model with new arrivals: same capacity, backlog cost and warmup,
  /// its kernel built from this one's (DeferralKernel's predecessor), so
  /// the periods whose classes kept their volume bits cost nothing to
  /// rebuild. The online pricer's restore uses it to install saved volumes.
  DynamicModel with_arrivals(DemandProfile arrivals) const;

  /// Scale every class volume of `period` by `factor` >= 0 in place: the
  /// online pricer's demand update. Bitwise what with_arrivals does with a
  /// copy of the profile scaled by DemandProfile::scale_period — the same
  /// volumes, TIP demand, capacity check and kernel, rebuilt from this
  /// model's kernel so that only the rescaled period's row is recomputed
  /// — without copying the profile. A factor that would push the daily
  /// demand to the daily capacity throws and leaves the model unchanged.
  void rescale_period(std::size_t period, double factor);

  std::size_t periods() const { return arrivals_.periods(); }
  const DemandProfile& arrivals() const { return arrivals_; }
  const std::vector<double>& capacity() const { return capacity_; }
  /// The capacity summed in period order, once, at construction.
  double total_capacity() const { return total_capacity_; }
  /// Each period's TIP demand, kept equal to arrivals().tip_demand_vector()
  /// bit for bit; summed in period order it is arrivals().total_demand().
  const math::Vector& tip_demand() const { return tip_; }
  const math::PiecewiseLinearCost& backlog_cost() const { return cost_; }
  const DeferralKernel& kernel() const { return kernel_; }
  std::size_t warmup_days() const { return warmup_days_; }

  /// Full steady-state day evaluation at a reward vector.
  struct Evaluation {
    math::Vector arrivals;  ///< post-deferral work arriving per period
    math::Vector backlog;   ///< end-of-period backlog (steady-state day)
    math::Vector served;    ///< work served per period
    double reward_cost = 0.0;
    double backlog_cost = 0.0;
    double total_cost = 0.0;
  };
  Evaluation evaluate(const math::Vector& rewards) const;

  /// Exact steady-state daily cost.
  double total_cost(const math::Vector& rewards) const;

  /// Cost with no rewards — the TIP baseline.
  double tip_cost() const;

  /// Smoothed objective: hinges in both the backlog recursion and f are
  /// mu-smoothed so the objective is C^1; used by the optimizer.
  double smoothed_cost(const math::Vector& rewards, double mu) const;

  /// Analytic gradient of smoothed_cost via forward accumulation through
  /// the warmed-up backlog recursion (grad pre-sized to periods()).
  void smoothed_gradient(const math::Vector& rewards, double mu,
                         math::Vector& grad) const;

  /// Rational reward cap: with carry-over, one deferred unit can save
  /// backlog cost in up to `longest congested run` consecutive periods, so
  /// the cap is that run length times f's max slope (evaluated under TIP).
  double reward_cap() const;

  // ---- Fused fast path (core/kernel_plan) --------------------------------
  // Bitwise identical to the reference methods of the same name; the
  // online pricer's per-period golden-section solve runs on
  // total_cost_with_coordinate so each candidate refreshes one column of
  // cached flows instead of re-walking the kernel. The warmup stops early;
  // the reference methods run every day. The exact cost's warmup stops
  // inside a day, at the first period whose backlog has the bits the day
  // before left there: from that period on the day repeats the day
  // before, and so does every later day. The smoothed paths stop once a
  // day ends in the state it started in. The fused gradient runs each day
  // as a scalar pass over the backlog (hinge slopes, f' and the day's
  // cost) and one simd::sensitivity_sweep that carries the backlog
  // sensitivities through the day in registers, reading Jacobian rows off
  // the plan's row-major derivative matrix.

  /// Fill `state` with the deferral flows at `rewards`.
  void prime_flow_state(const math::Vector& rewards, bool with_derivatives,
                        FlowState& state) const;

  /// total_cost via the plan; primes `state` at `rewards`.
  double total_cost(const math::Vector& rewards, FlowState& state) const;

  /// total_cost after changing only coordinate `period`'s reward against
  /// the matrix cached in `state` (must be primed on this model). Leaves
  /// `state` at the updated reward vector.
  double total_cost_with_coordinate(std::size_t period, double reward,
                                    FlowState& state) const;

  /// smoothed_cost via the plan; primes `state` at `rewards`.
  double smoothed_cost(const math::Vector& rewards, double mu,
                       FlowState& state) const;

  /// smoothed_cost and its gradient in one flow evaluation.
  double smoothed_cost_and_gradient(const math::Vector& rewards, double mu,
                                    math::Vector& grad,
                                    FlowState& state) const;

 private:
  DynamicModel(DemandProfile arrivals, std::vector<double> capacity,
               math::PiecewiseLinearCost backlog_cost, std::size_t warmup_days,
               const DeferralKernel* predecessor);

  /// Post-deferral arrivals a_i(p) and optionally their Jacobian rows.
  void arrivals_after_deferral(const math::Vector& rewards,
                               math::Vector& out) const;

  /// Exact steady-state cost from a filled FlowState (shared by the fast
  /// total_cost entry points).
  double assemble_total_cost(FlowState& state) const;

  DemandProfile arrivals_;
  std::vector<double> capacity_;
  math::PiecewiseLinearCost cost_;
  DeferralKernel kernel_;
  std::size_t warmup_days_;
  double total_capacity_ = 0.0;
  math::Vector tip_;  ///< cached tip_demand_vector()
};

}  // namespace tdp
