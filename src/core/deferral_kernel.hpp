// Deferral kernel: aggregate deferred volume between period pairs.
//
// Both the static and dynamic models repeatedly need
//
//   V(from, to, p) = sum_{j in from} v_j * w_j(p, lag(from, to))
//
// — the volume deferred from one period to another at reward p — and its
// reward derivative. The kernel snapshots the demand mix, supports the two
// lag conventions of Prop. 5 (LagConvention, core/waiting_function.hpp:
// sessions starting at the period boundary, or arriving uniformly within
// it), and builds unit-reward tables when every waiting function is linear
// in the reward, making model evaluations pure arithmetic.
//
// A kernel owns the state it builds — the class lists, the unit tables,
// the lazily computed validity bound and the fused evaluation plan
// (core/kernel_plan) — and its copies share it. A unit table's row sums
// its classes' volumes times each function's own unit lag weights
// (PowerLawWaitingFunction::unit_weights). A kernel built from a
// predecessor recomputes only what the new volumes change, period by
// period: a period that kept the same waiting-function objects and volume
// bits shares its class row with the predecessor and keeps its unit-table
// row. The online pricer rescales one period per observation
// (DynamicModel::rescale_period), so its new kernel copies one period's
// classes, copies both unit tables whole and recomputes one row of them;
// the unit inflow, which every row feeds, is re-summed by the same
// off-diagonal reduction as the plan's outflows (simd::off_diagonal_sums).
// When every period matches — a confirmed forecast — the new kernel
// shares the predecessor's whole state, plan included.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/demand_profile.hpp"

namespace tdp {

class KernelPlan;
struct DeferralKernelState;

/// A linear kernel's unit-reward pair volumes V(from, to, 1) in both
/// layouts, and their column sums. The diagonal holds 0.0.
struct UnitTables {
  std::vector<double> by_row;     ///< [from * n + to]
  std::vector<double> by_column;  ///< [to * n + from]
  std::vector<double> inflow;     ///< [to], sum over from != to
};

/// Effective waiting weight for a whole-period lag L under a convention:
/// w(p, L) for kPeriodStart, or the uniform-arrival average
/// integral_{L-1}^{L} w(p, u) du for kUniformArrival. Shared by the kernel
/// and the session-level stochastic simulator so the two agree exactly in
/// expectation, and the quadrature reference every tabulated weight of
/// PowerLawWaitingFunction equals bitwise.
double lag_weight(const PowerLawWaitingFunction& w, double reward,
                  std::size_t lag, LagConvention convention);

/// d/dp of lag_weight.
double lag_weight_derivative(const PowerLawWaitingFunction& w, double reward,
                             std::size_t lag, LagConvention convention);

class DeferralKernel {
 public:
  /// `predecessor`, when given, lends what provably equals this build's
  /// own result (see above), and nothing unless its convention and period
  /// count match. It need only outlive the constructor.
  DeferralKernel(const DemandProfile& demand, LagConvention convention,
                 const DeferralKernel* predecessor = nullptr);

  std::size_t periods() const { return periods_; }
  LagConvention convention() const { return convention_; }

  /// True when all waiting functions are linear in the reward, enabling the
  /// precomputed fast path.
  bool linear() const { return linear_; }

  /// Volume deferred from `from` to `to` (!= from) at reward p.
  double pair_volume(std::size_t from, std::size_t to, double reward) const;

  /// d/dp of pair_volume.
  double pair_volume_derivative(std::size_t from, std::size_t to,
                                double reward) const;

  /// sum over sources k != into of pair_volume(k, into, reward).
  double inflow(std::size_t into, double reward) const;

  /// d/dp of inflow.
  double inflow_derivative(std::size_t into, double reward) const;

  /// sum over targets m != from of pair_volume(from, m, rewards[m]).
  double outflow(std::size_t from, const std::vector<double>& rewards) const;

  /// Largest uniform reward r such that no period's outflow at rewards
  /// r*(1,...,1) exceeds its demand — the model's probabilistic validity
  /// bound ("usage deferred out of a period is not greater than demand
  /// under TIP"). Under a normalization matched to the kernel's lag
  /// convention this equals the normalization point P. Returns +inf when
  /// there is no demand to defer. Computed once per state.
  double max_safe_reward() const;

  /// The fused structure-of-arrays evaluation plan for this demand
  /// snapshot, built lazily once per state (see core/kernel_plan).
  std::shared_ptr<const KernelPlan> plan() const;

  /// Class mix snapshot for period i (plan construction, tests).
  const std::vector<SessionClass>& classes(std::size_t period) const;

  /// Unit-reward tables (null unless linear()), shared with the plan.
  std::shared_ptr<const UnitTables> unit_tables() const;

 private:
  std::size_t periods_;
  LagConvention convention_;
  bool linear_ = false;
  /// Immutable snapshot: class lists, unit tables, lazy validity bound and
  /// evaluation plan. Shared by this kernel's copies and by successors
  /// built from it whose demand matches period for period.
  std::shared_ptr<const DeferralKernelState> state_;
};

}  // namespace tdp
