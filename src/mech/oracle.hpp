// DayAheadOracleMechanism: the exact day-ahead solve — the arena's
// ground-truth upper bound.
//
// Where TubeOnline starts from the offline solve and then wanders with the
// per-period measurements, the oracle is handed the *true* fluid model (the
// same waiting functions and demand profile the population samples from)
// and solves the full-day reward vector offline with a refined schedule:
// the FISTA iteration cap is raised and the final smoothing mu tightened
// an extra decade beyond the online pricer's offline options
// (config.oracle_refine; off = the identical offline solve, isolating the
// value of the refinement alone).
//
// Day-ahead foresight enters at settle: pre-deferral (offered) demand is
// reward-independent, so the profile observed today IS tomorrow's truth
// for a seeded fleet. Each settle rescales the model's expected demand to
// the observed offered profile and re-solves the full day — the schedule
// the fleet publishes from day 2 on is the exact optimum for the demand it
// will actually face, not for the fluid expectation.
#pragma once

#include "mech/mechanism.hpp"

namespace tdp::mech {

class DayAheadOracleMechanism final : public PricingMechanism {
 public:
  DayAheadOracleMechanism(DynamicModel model,
                          const DynamicOptimizerOptions& offline_options,
                          const MechanismConfig& config);

  MechanismKind kind() const override {
    return MechanismKind::kDayAheadOracle;
  }
  const math::Vector& rewards() const override { return rewards_; }

  void observe_period(std::size_t, double, bool, std::size_t) override {}
  void observe_missed(std::size_t) override {}
  SettleInfo settle_day(const DaySettlement& day) override;

  double expected_cost() const override { return expected_cost_; }

  void restore_state(const MechanismState& state) override;

  bool converged() const { return converged_; }

 private:
  /// The configured model with the demand swapped in and the capacity
  /// tightened to the oracle's pricing target.
  DynamicModel priced_model(DemandProfile demand) const;

  DynamicModel model_;  ///< the true fluid model (expected demand)
  DynamicOptimizerOptions options_;
  double capacity_target_ = 1.0;
  math::Vector rewards_;
  double expected_cost_ = 0.0;
  bool converged_ = false;
};

}  // namespace tdp::mech
