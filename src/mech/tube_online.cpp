#include "mech/tube_online.hpp"

#include <utility>

#include "common/error.hpp"

namespace tdp::mech {
namespace {

std::vector<double> model_tip_demand(const DynamicModel& model) {
  const math::Vector tip = model.arrivals().tip_demand_vector();
  return std::vector<double>(tip.begin(), tip.end());
}

}  // namespace

TubeOnlineMechanism::TubeOnlineMechanism(
    DynamicModel model, const DynamicOptimizerOptions& offline_options,
    const PricerGuardConfig& guard)
    : PricingMechanism(model_tip_demand(model), model.reward_cap()) {
  pricer_ = std::make_unique<OnlinePricer>(std::move(model), offline_options,
                                           guard);
}

TubeOnlineMechanism::TubeOnlineMechanism(std::unique_ptr<OnlinePricer> pricer)
    : PricingMechanism(model_tip_demand(pricer->model()),
                       pricer->model().reward_cap()) {
  pricer_ = std::move(pricer);
}

SettleInfo TubeOnlineMechanism::settle_day(const DaySettlement& day) {
  SettleInfo info;
  info.budget_spent = day.reward_paid_units;
  return info;  // continuous adjustment; the day boundary changes nothing
}

void TubeOnlineMechanism::restore_state(const MechanismState&) {
  TDP_REQUIRE(false,
              "tube_online restores through OnlinePricerState, not "
              "MechanismState");
}

}  // namespace tdp::mech
