#include "core/static_model.hpp"

#include "common/error.hpp"

namespace tdp {

StaticModel::StaticModel(DemandProfile demand, std::vector<double> capacity,
                         math::PiecewiseLinearCost capacity_cost)
    : demand_(std::move(demand)),
      capacity_(std::move(capacity)),
      cost_(std::move(capacity_cost)),
      kernel_(demand_, LagConvention::kPeriodStart),
      tip_(demand_.tip_demand_vector()) {
  TDP_REQUIRE(capacity_.size() == demand_.periods(),
              "capacity vector must cover every period");
  for (double a : capacity_) {
    TDP_REQUIRE(a >= 0.0, "capacity must be nonnegative");
  }
}

StaticModel::StaticModel(DemandProfile demand, double capacity,
                         math::PiecewiseLinearCost capacity_cost)
    : demand_(std::move(demand)),
      capacity_(demand_.periods(), capacity),
      cost_(std::move(capacity_cost)),
      kernel_(demand_, LagConvention::kPeriodStart),
      tip_(demand_.tip_demand_vector()) {
  TDP_REQUIRE(capacity >= 0.0, "capacity must be nonnegative");
}

double StaticModel::deferred_in(std::size_t into, double reward) const {
  return kernel_.inflow(into, reward);
}

double StaticModel::deferred_out(std::size_t from,
                                 const math::Vector& rewards) const {
  return kernel_.outflow(from, rewards);
}

math::Vector StaticModel::usage(const math::Vector& rewards) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  math::Vector x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = demand_.tip_demand(i) - kernel_.outflow(i, rewards) +
           kernel_.inflow(i, rewards[i]);
  }
  return x;
}

double StaticModel::reward_cost(const math::Vector& rewards) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += rewards[i] * kernel_.inflow(i, rewards[i]);
  }
  return total;
}

double StaticModel::capacity_cost_value(const math::Vector& usage_vec) const {
  const std::size_t n = periods();
  TDP_REQUIRE(usage_vec.size() == n, "usage vector size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += cost_.value(usage_vec[i] - capacity_[i]);
  }
  return total;
}

double StaticModel::total_cost(const math::Vector& rewards) const {
  return reward_cost(rewards) + capacity_cost_value(usage(rewards));
}

double StaticModel::tip_cost() const {
  const math::Vector zero(periods(), 0.0);
  return capacity_cost_value(usage(zero));
}

double StaticModel::smoothed_cost(const math::Vector& rewards,
                                  double mu) const {
  const std::size_t n = periods();
  const math::Vector x = usage(rewards);
  double total = reward_cost(rewards);
  for (std::size_t i = 0; i < n; ++i) {
    total += cost_.smoothed_value(x[i] - capacity_[i], mu);
  }
  return total;
}

void StaticModel::smoothed_gradient(const math::Vector& rewards, double mu,
                                    math::Vector& grad) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  TDP_REQUIRE(grad.size() == n, "gradient vector size mismatch");

  const math::Vector x = usage(rewards);
  math::Vector fprime(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    fprime[i] = cost_.smoothed_derivative(x[i] - capacity_[i], mu);
  }

  for (std::size_t m = 0; m < n; ++m) {
    const double din = kernel_.inflow(m, rewards[m]);
    const double din_deriv = kernel_.inflow_derivative(m, rewards[m]);
    double g = din + rewards[m] * din_deriv + fprime[m] * din_deriv;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == m) continue;
      g -= fprime[i] * kernel_.pair_volume_derivative(i, m, rewards[m]);
    }
    grad[m] = g;
  }
}

// ---- Fused fast path -------------------------------------------------------
// Each assembly below reproduces the corresponding reference method's
// floating-point operations in order, reading the flows from the FlowState
// instead of re-walking the kernel. See tests/test_kernel_plan.cpp for the
// bitwise property tests.

void StaticModel::prime_flow_state(const math::Vector& rewards,
                                   bool with_derivatives,
                                   FlowState& state) const {
  kernel_.plan()->evaluate(rewards, with_derivatives, state);
}

math::Vector StaticModel::usage(const math::Vector& rewards,
                                FlowState& state) const {
  const std::size_t n = periods();
  prime_flow_state(rewards, /*with_derivatives=*/false, state);
  math::Vector x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }
  return x;
}

double StaticModel::reward_cost(const FlowState& state) const {
  const std::size_t n = periods();
  TDP_REQUIRE(state.rewards.size() == n, "state not primed on this model");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += state.rewards[i] * state.inflow[i];
  }
  return total;
}

double StaticModel::smoothed_cost(const math::Vector& rewards, double mu,
                                  FlowState& state) const {
  const std::size_t n = periods();
  prime_flow_state(rewards, /*with_derivatives=*/false, state);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += rewards[i] * state.inflow[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double x = tip_[i] - state.outflow[i] + state.inflow[i];
    total += cost_.smoothed_value(x - capacity_[i], mu);
  }
  return total;
}

double StaticModel::smoothed_cost_and_gradient(const math::Vector& rewards,
                                               double mu, math::Vector& grad,
                                               FlowState& state) const {
  const std::size_t n = periods();
  TDP_REQUIRE(grad.size() == n, "gradient vector size mismatch");
  prime_flow_state(rewards, /*with_derivatives=*/true, state);

  math::Vector& x = state.aux_a;
  math::Vector& fprime = state.aux_b;
  x.resize(n);
  fprime.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += rewards[i] * state.inflow[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    total += cost_.smoothed_value(x[i] - capacity_[i], mu);
  }

  for (std::size_t i = 0; i < n; ++i) {
    fprime[i] = cost_.smoothed_derivative(x[i] - capacity_[i], mu);
  }
  const double* dV = state.pair_derivative.data();
  for (std::size_t m = 0; m < n; ++m) {
    const double din = state.inflow[m];
    const double din_deriv = state.inflow_derivative[m];
    double g = din + rewards[m] * din_deriv + fprime[m] * din_deriv;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == m) continue;
      g -= fprime[i] * dV[i * n + m];
    }
    grad[m] = g;
  }
  return total;
}

}  // namespace tdp
