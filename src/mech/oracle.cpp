#include "mech/oracle.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace tdp::mech {
namespace {

std::vector<double> model_tip_demand(const DynamicModel& model) {
  const math::Vector tip = model.arrivals().tip_demand_vector();
  return std::vector<double>(tip.begin(), tip.end());
}

}  // namespace

DayAheadOracleMechanism::DayAheadOracleMechanism(
    DynamicModel model, const DynamicOptimizerOptions& offline_options,
    const MechanismConfig& config)
    : PricingMechanism(model_tip_demand(model), model.reward_cap()),
      model_(std::move(model)),
      options_(offline_options) {
  TDP_REQUIRE(config.oracle_capacity_target > 0.0 &&
                  config.oracle_capacity_target <= 1.0,
              "oracle capacity target must be in (0, 1]");
  capacity_target_ = config.oracle_capacity_target;
  if (config.oracle_refine) {
    options_.fista.max_iterations =
        std::max<std::size_t>(options_.fista.max_iterations, 12000);
    options_.mu_final = std::min(options_.mu_final, 1e-6);
  }
  const DynamicPricingSolution solution =
      optimize_dynamic_prices(priced_model(model_.arrivals()), options_);
  rewards_ = solution.rewards;
  expected_cost_ = model_.total_cost(rewards_);
  converged_ = solution.converged;
}

DynamicModel DayAheadOracleMechanism::priced_model(
    DemandProfile demand) const {
  std::vector<double> capacity = model_.capacity();
  double total_capacity = 0.0;
  for (const double c : capacity) total_capacity += c;
  // Tightening must keep the day feasible (total demand strictly under
  // total capacity) or no cyclic steady state exists; back the target off
  // to a 5% headroom over the demand's own load factor when needed.
  double factor = capacity_target_;
  if (total_capacity > 0.0) {
    factor = std::max(factor, 1.05 * demand.total_demand() / total_capacity);
  }
  factor = std::min(factor, 1.0);
  for (double& c : capacity) c *= factor;
  return DynamicModel(std::move(demand), std::move(capacity),
                      model_.backlog_cost(), model_.warmup_days());
}

SettleInfo DayAheadOracleMechanism::settle_day(const DaySettlement& day) {
  SettleInfo info;
  info.budget_spent = day.reward_paid_units;
  TDP_REQUIRE(day.offered_units.size() == periods(),
              "settlement profile size mismatch");

  // Perfect day-ahead information: offered demand does not depend on the
  // published rewards, so today's observed profile is exactly what
  // tomorrow brings. Rescale the model's expected demand to it and
  // re-solve the whole day.
  DemandProfile demand = model_.arrivals();
  for (std::size_t p = 0; p < periods(); ++p) {
    if (tip_demand_[p] > 0.0) {
      demand.scale_period(p, day.offered_units[p] / tip_demand_[p]);
    }
  }
  const DynamicPricingSolution solution =
      optimize_dynamic_prices(priced_model(std::move(demand)), options_);
  converged_ = solution.converged;
  expected_cost_ = model_.total_cost(solution.rewards);
  info.schedule_changed = !(solution.rewards == rewards_);
  rewards_ = solution.rewards;
  return info;
}

void DayAheadOracleMechanism::restore_state(const MechanismState& state) {
  PricingMechanism::restore_state(state);
  rewards_ = state.rewards;
}

}  // namespace tdp::mech
