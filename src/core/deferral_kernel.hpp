// Deferral kernel: aggregate deferred volume between period pairs.
//
// Both the static and dynamic models repeatedly need
//
//   V(from, to, p) = sum_{j in from} v_j * w_j(p, lag(from, to))
//
// — the volume deferred from one period to another at reward p — and its
// reward derivative. The kernel snapshots the demand mix, supports two lag
// conventions (Prop. 5):
//
//   kPeriodStart:    sessions start at the period boundary; the lag is the
//                    integer cyclic distance (static model, Section II);
//   kUniformArrival: arrival times are uniform within the period, so the
//                    effective waiting-function weight is the average
//                    integral_0^1 w(p, L-1+u) du (dynamic model, Appendix F);
//
// and precomputes unit-reward coefficients when every waiting function is
// linear in the reward, making model evaluations pure arithmetic.
//
// Construction is memoized: kernels built from bitwise-identical demand
// snapshots (same waiting-function objects, same volume bit patterns, same
// convention) share one immutable state — the unit tables, the lazily
// computed validity bound, and the fused evaluation plan (core/kernel_plan)
// are computed once per distinct profile, not once per model. The batch
// solver's anchor pattern hits this cache; the online pricer's rescaled
// profiles practically never do (a measurement rarely equals the forecast
// bit for bit), so a rebuild recomputes only what the new volumes change:
// each waiting function's unit lag weights are cached per object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/demand_profile.hpp"

namespace tdp {

enum class LagConvention { kPeriodStart, kUniformArrival };

class KernelPlan;
struct DeferralKernelState;

/// Effective waiting weight for a whole-period lag L under a convention:
/// w(p, L) for kPeriodStart, or the uniform-arrival average
/// integral_{L-1}^{L} w(p, u) du for kUniformArrival. Shared by the kernel
/// and the session-level stochastic simulator so the two agree exactly in
/// expectation.
double lag_weight(const WaitingFunction& w, double reward, std::size_t lag,
                  LagConvention convention);

/// d/dp of lag_weight.
double lag_weight_derivative(const WaitingFunction& w, double reward,
                             std::size_t lag, LagConvention convention);

/// lag_weight and lag_weight_derivative in one pass: each waiting function
/// is evaluated once per (lag, reward) — one fused virtual call for
/// kPeriodStart, one quadrature sweep accumulating both integrals for
/// kUniformArrival — with results bitwise identical to the separate calls.
void lag_weight_pair(const WaitingFunction& w, double reward, std::size_t lag,
                     LagConvention convention, double& value_out,
                     double& derivative_out);

class DeferralKernel {
 public:
  DeferralKernel(const DemandProfile& demand, LagConvention convention);

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
  /// there is no demand to defer. Computed once per shared state.
  double max_safe_reward() const;

  /// The fused structure-of-arrays evaluation plan for this demand
  /// snapshot, built lazily once per shared state (see core/kernel_plan).
  std::shared_ptr<const KernelPlan> plan() const;

  /// Class mix snapshot for period i (plan construction, tests).
  const std::vector<SessionClass>& classes(std::size_t period) const;

  /// Unit-reward pair volumes / column sums (empty unless linear()).
  const std::vector<double>& unit_table() const;
  const std::vector<double>& unit_inflow_table() const;

  /// Identity of the shared construction state — equal for kernels that hit
  /// the same memo entry. Diagnostics/tests only.
  const void* state_id() const;

  /// Monotone counters for the construction memo (process-wide).
  static std::uint64_t cache_hits();
  static std::uint64_t cache_misses();

 private:
  std::size_t periods_;
  LagConvention convention_;
  bool linear_ = false;
  /// Shared immutable snapshot: class lists, unit tables, lazy validity
  /// bound and evaluation plan. Kernels from bitwise-identical profiles
  /// point at the same state (bounded process-wide memo).
  std::shared_ptr<const DeferralKernelState> state_;
};

}  // namespace tdp
