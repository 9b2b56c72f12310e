#include "dynamic/dynamic_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace tdp {
namespace {

/// Smoothed hinge and its derivative (same blend as PiecewiseLinearCost).
double smooth_hinge(double y, double mu) {
  if (y <= 0.0) return 0.0;
  if (y >= mu) return y - 0.5 * mu;
  return y * y / (2.0 * mu);
}

double smooth_hinge_derivative(double y, double mu) {
  if (y <= 0.0) return 0.0;
  if (y >= mu) return 1.0;
  return y / mu;
}

/// The steady-state condition of every model: with daily demand at or
/// above daily capacity the backlog diverges.
void require_steady_state(double daily_demand, double daily_capacity) {
  TDP_REQUIRE(daily_demand < daily_capacity,
              "daily demand must not exceed daily capacity or the backlog "
              "diverges and no steady state exists");
}

/// Bit-pattern equality: the repeat test of the fused paths' early exits
/// (unlike ==, it never equates +0.0 with -0.0).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

DynamicModel::DynamicModel(DemandProfile arrivals,
                           std::vector<double> capacity,
                           math::PiecewiseLinearCost backlog_cost,
                           std::size_t warmup_days)
    : DynamicModel(std::move(arrivals), std::move(capacity),
                   std::move(backlog_cost), warmup_days, nullptr) {}

DynamicModel::DynamicModel(DemandProfile arrivals,
                           std::vector<double> capacity,
                           math::PiecewiseLinearCost backlog_cost,
                           std::size_t warmup_days,
                           const DeferralKernel* predecessor)
    : arrivals_(std::move(arrivals)),
      capacity_(std::move(capacity)),
      cost_(std::move(backlog_cost)),
      kernel_(arrivals_, LagConvention::kUniformArrival, predecessor),
      warmup_days_(warmup_days) {
  TDP_REQUIRE(capacity_.size() == arrivals_.periods(),
              "capacity vector must cover every period");
  TDP_REQUIRE(warmup_days_ >= 1, "need at least one warmup day");
  for (double a : capacity_) {
    TDP_REQUIRE(a >= 0.0, "capacity must be nonnegative");
    total_capacity_ += a;
  }
  require_steady_state(arrivals_.total_demand(), total_capacity_);
  tip_ = arrivals_.tip_demand_vector();
}

DynamicModel::DynamicModel(DemandProfile arrivals, double capacity,
                           math::PiecewiseLinearCost backlog_cost,
                           std::size_t warmup_days)
    : arrivals_(std::move(arrivals)),
      capacity_(arrivals_.periods(), capacity),
      cost_(std::move(backlog_cost)),
      kernel_(arrivals_, LagConvention::kUniformArrival),
      warmup_days_(warmup_days) {
  TDP_REQUIRE(capacity >= 0.0, "capacity must be nonnegative");
  TDP_REQUIRE(warmup_days_ >= 1, "need at least one warmup day");
  require_steady_state(arrivals_.total_demand(),
                       capacity * static_cast<double>(periods()));
  for (double a : capacity_) total_capacity_ += a;
  tip_ = arrivals_.tip_demand_vector();
}

DynamicModel DynamicModel::with_arrivals(DemandProfile arrivals) const {
  return DynamicModel(std::move(arrivals), capacity_, cost_, warmup_days_,
                      &kernel_);
}

void DynamicModel::rescale_period(std::size_t period, double factor) {
  TDP_REQUIRE(period < periods(), "period out of range");
  TDP_REQUIRE(factor >= 0.0, "scale factor must be nonnegative");
  // The period's new TIP demand and the day's, each summed as tip_demand
  // and total_demand sum them, so the check is the constructor's and runs
  // before anything changes.
  double period_demand = 0.0;
  for (const SessionClass& sc : arrivals_.classes(period)) {
    period_demand += sc.volume * factor;
  }
  double total_demand = 0.0;
  for (std::size_t i = 0; i < periods(); ++i) {
    total_demand += i == period ? period_demand : tip_[i];
  }
  require_steady_state(total_demand, total_capacity_);
  arrivals_.scale_period(period, factor);
  tip_[period] = period_demand;
  kernel_ = DeferralKernel(arrivals_, LagConvention::kUniformArrival, &kernel_);
}

void DynamicModel::arrivals_after_deferral(const math::Vector& rewards,
                                           math::Vector& out) const {
  const std::size_t n = periods();
  out.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = arrivals_.tip_demand(i) - kernel_.outflow(i, rewards) +
             kernel_.inflow(i, rewards[i]);
  }
}

DynamicModel::Evaluation DynamicModel::evaluate(
    const math::Vector& rewards) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");

  Evaluation ev;
  arrivals_after_deferral(rewards, ev.arrivals);
  ev.backlog.assign(n, 0.0);
  ev.served.assign(n, 0.0);

  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const bool last = (day + 1 == warmup_days_);
    for (std::size_t i = 0; i < n; ++i) {
      const double load = backlog + ev.arrivals[i];
      const double served = std::min(load, capacity_[i]);
      backlog = load - served;
      if (last) {
        ev.backlog[i] = backlog;
        ev.served[i] = served;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    ev.reward_cost += rewards[i] * kernel_.inflow(i, rewards[i]);
    ev.backlog_cost += cost_.value(ev.backlog[i]);
  }
  ev.total_cost = ev.reward_cost + ev.backlog_cost;
  return ev;
}

double DynamicModel::total_cost(const math::Vector& rewards) const {
  return evaluate(rewards).total_cost;
}

double DynamicModel::tip_cost() const {
  return total_cost(math::Vector(periods(), 0.0));
}

double DynamicModel::smoothed_cost(const math::Vector& rewards,
                                   double mu) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");

  math::Vector arr;
  arrivals_after_deferral(rewards, arr);

  double cost = 0.0;
  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const bool last = (day + 1 == warmup_days_);
    for (std::size_t i = 0; i < n; ++i) {
      backlog = smooth_hinge(backlog + arr[i] - capacity_[i], mu);
      if (last) cost += cost_.smoothed_value(backlog, mu);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    cost += rewards[i] * kernel_.inflow(i, rewards[i]);
  }
  return cost;
}

void DynamicModel::smoothed_gradient(const math::Vector& rewards, double mu,
                                     math::Vector& grad) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  TDP_REQUIRE(grad.size() == n, "gradient vector size mismatch");
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");

  math::Vector arr;
  arrivals_after_deferral(rewards, arr);

  // Jacobian of post-deferral arrivals: darr[i][m] = d a_i / d p_m.
  std::vector<math::Vector> darr(n, math::Vector(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t m = 0; m < n; ++m) {
      if (m == i) {
        darr[i][m] = kernel_.inflow_derivative(i, rewards[i]);
      } else {
        darr[i][m] = -kernel_.pair_volume_derivative(i, m, rewards[m]);
      }
    }
  }

  // Forward accumulation of backlog sensitivities through the warmup chain.
  std::fill(grad.begin(), grad.end(), 0.0);
  math::Vector dbacklog(n, 0.0);
  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const bool last = (day + 1 == warmup_days_);
    for (std::size_t i = 0; i < n; ++i) {
      const double pre = backlog + arr[i] - capacity_[i];
      const double sigma = smooth_hinge_derivative(pre, mu);
      backlog = smooth_hinge(pre, mu);
      for (std::size_t m = 0; m < n; ++m) {
        dbacklog[m] = sigma * (dbacklog[m] + darr[i][m]);
      }
      if (last) {
        const double fprime = cost_.smoothed_derivative(backlog, mu);
        for (std::size_t m = 0; m < n; ++m) {
          grad[m] += fprime * dbacklog[m];
        }
      }
    }
  }

  // Reward-cost gradient: d/dp_m [ p_m * inflow(m, p_m) ].
  for (std::size_t m = 0; m < n; ++m) {
    grad[m] += kernel_.inflow(m, rewards[m]) +
               rewards[m] * kernel_.inflow_derivative(m, rewards[m]);
  }
}

// ---- Fused fast path -------------------------------------------------------
// Each assembly reproduces the reference method's floating-point operations
// in order, reading the deferral flows from the FlowState instead of
// re-walking the kernel (tests/test_kernel_plan.cpp checks bitwise
// identity).
//
// Early exits: every warmup day runs the same arithmetic on the same
// arrivals, so a day's values from any period on are a function of the
// state entering that period alone — the backlog, plus the backlog
// sensitivities on the gradient path. The exact cost needs only the
// backlog, so it stops where a day rejoins the day before: at the first
// period whose end backlog has the bits the day before left there, every
// later period of the day repeats the day before, the day ends where the
// day before ended, and every later day repeats it. The smoothed paths
// stop once a day starts in the state, bit for bit, that the day before
// started in (day-cyclic). Either way the warmup stops with the last
// day's values in hand. The reference methods keep running every day and
// remain the oracle.

void DynamicModel::prime_flow_state(const math::Vector& rewards,
                                    bool with_derivatives,
                                    FlowState& state) const {
  kernel_.plan()->evaluate(rewards, with_derivatives, state);
}

double DynamicModel::assemble_total_cost(FlowState& state) const {
  const std::size_t n = periods();
  math::Vector& arr = state.aux_a;
  math::Vector& end_backlog = state.aux_b;
  arr.resize(n);
  end_backlog.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    arr[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }

  // The first day runs whole from the empty link. Every later day
  // overwrites the day before's backlogs up to the period where it
  // rejoins them, whose backlog and every one after it end_backlog
  // already holds.
  double backlog = 0.0;
  const auto period_backlog = [&](std::size_t i) {
    // load - std::min(load, cap) with the select after the subtract: the
    // same operands and subtract (std::min picks cap exactly when
    // cap < load), so every backlog keeps its bits, and the subtract no
    // longer waits on the compare in the period-to-period recursion.
    const double load = backlog + arr[i];
    const double cap = capacity_[i];
    return cap < load ? load - cap : load - load;
  };
  for (std::size_t i = 0; i < n; ++i) {
    backlog = period_backlog(i);
    end_backlog[i] = backlog;
  }
  for (std::size_t day = 1; day < warmup_days_; ++day) {
    std::size_t i = 0;
    for (; i < n; ++i) {
      backlog = period_backlog(i);
      if (same_bits(backlog, end_backlog[i])) break;
      end_backlog[i] = backlog;
    }
    if (i < n) break;
  }

  double reward_total = 0.0;
  double backlog_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    reward_total += state.rewards[i] * state.inflow[i];
    backlog_total += cost_.value(end_backlog[i]);
  }
  return reward_total + backlog_total;
}

double DynamicModel::total_cost(const math::Vector& rewards,
                                FlowState& state) const {
  prime_flow_state(rewards, /*with_derivatives=*/false, state);
  return assemble_total_cost(state);
}

double DynamicModel::total_cost_with_coordinate(std::size_t period,
                                                double reward,
                                                FlowState& state) const {
  kernel_.plan()->update_coordinate(period, reward, /*with_derivatives=*/false,
                                    state);
  return assemble_total_cost(state);
}

double DynamicModel::smoothed_cost(const math::Vector& rewards, double mu,
                                   FlowState& state) const {
  const std::size_t n = periods();
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");
  prime_flow_state(rewards, /*with_derivatives=*/false, state);

  math::Vector& arr = state.aux_a;
  math::Vector& end_backlog = state.aux_b;
  arr.resize(n);
  end_backlog.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    arr[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }

  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const double day_start = backlog;
    for (std::size_t i = 0; i < n; ++i) {
      backlog = smooth_hinge(backlog + arr[i] - capacity_[i], mu);
      end_backlog[i] = backlog;
    }
    if (same_bits(backlog, day_start)) break;
  }
  double cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cost += cost_.smoothed_value(end_backlog[i], mu);
  }
  for (std::size_t i = 0; i < n; ++i) {
    cost += rewards[i] * state.inflow[i];
  }
  return cost;
}

double DynamicModel::smoothed_cost_and_gradient(const math::Vector& rewards,
                                                double mu, math::Vector& grad,
                                                FlowState& state) const {
  const std::size_t n = periods();
  TDP_REQUIRE(grad.size() == n, "gradient vector size mismatch");
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");
  prime_flow_state(rewards, /*with_derivatives=*/true, state);

  math::Vector& arr = state.aux_a;
  math::Vector& dbacklog = state.aux_b;
  math::Vector& dbacklog_day_start = state.aux_c;
  math::Vector& slopes = state.aux_d;  // sigma_i, then f'(backlog_i)
  arr.resize(n);
  dbacklog.assign(n, 0.0);
  dbacklog_day_start.resize(n);
  slopes.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    arr[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }

  // The backlog recursion never reads the sensitivities, so each day runs
  // in two passes: a scalar pass over the backlog that records every
  // period's hinge slope sigma_i (and, accumulating, f'(backlog_i) and the
  // day's cost), then one sweep that carries the sensitivities through the
  // day, reading the arrival Jacobian rows straight off the cached
  // derivative matrix (darr[i][m] = inflow'(i) if m == i else -dV[i][m]).
  // Every day after the first accumulates from zero, so a day that ends in
  // the state it started in has already produced, bit for bit, what the
  // last day would: the warmup stops there instead of running it again.
  // The first day starts from the zero state and skips the accumulation:
  // should it end where it started, the next day replays it.
  double* sigma = slopes.data();
  double* fprime = sigma + n;
  double cost = 0.0;
  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const bool accumulate = day > 0 || warmup_days_ == 1;
    const double backlog_day_start = backlog;
    std::copy(dbacklog.begin(), dbacklog.end(), dbacklog_day_start.begin());
    std::fill(grad.begin(), grad.end(), 0.0);
    cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double pre = backlog + arr[i] - capacity_[i];
      sigma[i] = smooth_hinge_derivative(pre, mu);
      backlog = smooth_hinge(pre, mu);
      if (accumulate) {
        cost += cost_.smoothed_value(backlog, mu);
        fprime[i] = cost_.smoothed_derivative(backlog, mu);
      }
    }
    simd::sensitivity_sweep(dbacklog.data(),
                            accumulate ? grad.data() : nullptr,
                            state.pair_derivative.data(),
                            state.inflow_derivative.data(), sigma, fprime, n);
    if (accumulate && same_bits(backlog, backlog_day_start) &&
        std::memcmp(dbacklog.data(), dbacklog_day_start.data(),
                    n * sizeof(double)) == 0) {
      break;
    }
  }
  for (std::size_t m = 0; m < n; ++m) {
    cost += rewards[m] * state.inflow[m];
    grad[m] += state.inflow[m] + rewards[m] * state.inflow_derivative[m];
  }
  return cost;
}

double DynamicModel::reward_cap() const {
  // Longest run (cyclically) of periods whose TIP load keeps the link
  // saturated, under the no-deferral backlog recursion.
  const std::size_t n = periods();
  math::Vector arr(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) arr[i] = arrivals_.tip_demand(i);

  double backlog = 0.0;
  std::size_t run = 0;
  std::size_t longest = 1;
  // Two warmed-up days to capture cyclic runs.
  for (std::size_t pass = 0; pass < 2 + warmup_days_; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      backlog = std::max(backlog + arr[i] - capacity_[i], 0.0);
      if (backlog > 0.0) {
        ++run;
        longest = std::max(longest, run);
      } else {
        run = 0;
      }
    }
  }
  longest = std::min(longest, n);
  const double run_cap = static_cast<double>(longest) * cost_.max_slope();
  // Never exceed the probabilistic validity bound: beyond it some period
  // would "defer out" more traffic than it has.
  return std::min(run_cap, kernel_.max_safe_reward());
}

}  // namespace tdp
