// TubeOnlineMechanism: the §III-B OnlinePricer as an arena mechanism.
//
// A thin forwarding wrapper — constructing one with the driver's model,
// offline options, and guard runs the same offline solve and publishes the
// same schedule as the pre-arena FleetDriver, and every observe call
// forwards unchanged, so a default-config fleet day is bit-identical to
// the pre-arena driver's. settle_day is a no-op: the online pricer adjusts
// continuously, there is nothing left to do at the day boundary.
//
// Checkpointing goes through OnlinePricerState (export_state/restore on
// the wrapped pricer), not the generic MechanismState: the pricer's health
// ladder and demand volumes have richer structure than the generic
// container carries. The restore constructor accepts an already-restored
// pricer for that path.
#pragma once

#include <memory>

#include "mech/mechanism.hpp"

namespace tdp::mech {

class TubeOnlineMechanism final : public PricingMechanism {
 public:
  TubeOnlineMechanism(DynamicModel model,
                      const DynamicOptimizerOptions& offline_options,
                      const PricerGuardConfig& guard);
  /// Restore path: adopt a pricer rebuilt via OnlinePricer::restore.
  explicit TubeOnlineMechanism(std::unique_ptr<OnlinePricer> pricer);

  MechanismKind kind() const override { return MechanismKind::kTubeOnline; }
  const math::Vector& rewards() const override { return pricer_->rewards(); }

  void observe_period(std::size_t period, double measured_units,
                      bool degraded, std::size_t iteration_budget) override {
    pricer_->observe_period(period, measured_units, degraded,
                            iteration_budget);
  }
  void observe_missed(std::size_t period) override {
    pricer_->observe_missed(period);
  }
  SettleInfo settle_day(const DaySettlement& day) override;

  PricerHealth health() const override { return pricer_->health(); }
  const PricerHealthStats* health_stats() const override {
    return &pricer_->health_stats();
  }
  double expected_cost() const override { return pricer_->expected_cost(); }
  std::size_t solver_budget() const override {
    return pricer_->guard().solver_max_iterations;
  }
  OnlinePricer* online_pricer() override { return pricer_.get(); }

  /// TubeOnline checkpoints through OnlinePricerState; the generic restore
  /// hook is a contract violation, not a fallback.
  void restore_state(const MechanismState& state) override;

 private:
  std::unique_ptr<OnlinePricer> pricer_;
};

}  // namespace tdp::mech
