// The run configurations and the bitwise DayMetrics comparison that the
// driver-level tests share: the invariance battery (test_invariance.cpp)
// and the per-feature tests build on one copy of each.
#pragma once

#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/simd.hpp"
#include "gtest/gtest.h"
#include "horizon/horizon_config.hpp"
#include "horizon/horizon_metrics.hpp"
#include "horizon/multi_day_driver.hpp"

namespace tdp::scenarios {

/// The small horizon: 12 periods, 1500 users in 8 slices grouped into 4
/// shards on 2 threads, one warmup day and three measured days with §IV
/// estimation and re-anchoring on.
inline horizon::HorizonConfig small_config() {
  horizon::HorizonConfig config;
  config.population.users = 1500;
  config.population.periods = 12;
  config.population.seed = 20110611;
  config.shards = 4;
  config.slices = 8;
  config.threads = 2;
  config.warmup_days = 1;
  config.horizon_days = 3;
  config.estimation_window = 3;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  return config;
}

/// I.i.d. price-pull drops, measurement loss, NaNs and spikes, and solver
/// exhaustion, plus 2%/day patience drift.
inline FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.price_pull_drop = 0.05;
  plan.measurement_loss = 0.04;
  plan.measurement_nan = 0.02;
  plan.measurement_spike = 0.02;
  plan.solver_exhaustion = 0.03;
  plan.drift_beta_rate = 0.02;
  plan.seed = 424242;
  return plan;
}

/// 20%-duty storm: onset 0.06, persist 0.76 ->
/// duty = 0.06 / (0.06 + 0.24) = 0.2, mean burst 1/(1-0.76) ~ 4.2 periods.
inline StormRegime twenty_duty(double intensity) {
  StormRegime regime;
  regime.onset = 0.06;
  regime.persist = 0.76;
  regime.intensity = intensity;
  return regime;
}

/// chaos_plan's i.i.d. faults without drift, under 20%-duty blackout,
/// channel and solver storms.
inline FaultPlan storm_plan() {
  FaultPlan plan = chaos_plan();
  plan.drift_beta_rate = 0.0;
  plan.storm_blackout = twenty_duty(1.0);
  plan.storm_channel = twenty_duty(0.5);
  plan.storm_solver = twenty_duty(1.0);
  return plan;
}

inline horizon::HorizonConfig storm_config() {
  horizon::HorizonConfig config = small_config();
  config.fault = storm_plan();
  return config;
}

/// storm_config with the incident engine on, at thresholds low enough that
/// incidents open (the storm golden fixture's).
inline horizon::HorizonConfig incident_config() {
  horizon::HorizonConfig config = storm_config();
  config.incident.enabled = true;
  config.incident.slo_short_burn = 0.5;
  config.incident.slo_max_fallback_per_day = 0;
  config.incident.slo_p2a_floor = 0.5;
  config.incident.slo_p2a_window_days = 1;
  config.incident.recorder_capacity = 16;
  return config;
}

/// EXPECT_EQ on every DayMetrics field — raw doubles, no tolerance.
inline void expect_days_bitwise_equal(
    const std::vector<horizon::DayMetrics>& a,
    const std::vector<horizon::DayMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    SCOPED_TRACE("day " + std::to_string(d));
    EXPECT_EQ(a[d].day, b[d].day);
    EXPECT_EQ(a[d].offered_units, b[d].offered_units);
    EXPECT_EQ(a[d].realized_units, b[d].realized_units);
    EXPECT_EQ(a[d].rewards, b[d].rewards);
    EXPECT_EQ(a[d].sessions, b[d].sessions);
    EXPECT_EQ(a[d].deferred_sessions, b[d].deferred_sessions);
    EXPECT_EQ(a[d].reward_paid_units, b[d].reward_paid_units);
    EXPECT_EQ(a[d].peak_to_average_tip, b[d].peak_to_average_tip);
    EXPECT_EQ(a[d].peak_to_average_tdp, b[d].peak_to_average_tdp);
    EXPECT_EQ(a[d].estimated, b[d].estimated);
    EXPECT_EQ(a[d].beta_estimate, b[d].beta_estimate);
    EXPECT_EQ(a[d].estimate_residual, b[d].estimate_residual);
    EXPECT_EQ(a[d].reanchored, b[d].reanchored);
    EXPECT_EQ(a[d].reward_step_linf, b[d].reward_step_linf);
    EXPECT_EQ(a[d].fallback_periods, b[d].fallback_periods);
    EXPECT_EQ(a[d].estimation_frozen, b[d].estimation_frozen);
    EXPECT_EQ(a[d].reanchor_rolled_back, b[d].reanchor_rolled_back);
  }
}

inline std::vector<horizon::DayMetrics> run_uninterrupted(
    const horizon::HorizonConfig& config) {
  horizon::MultiDayDriver driver(config);
  driver.run();
  return driver.completed_days();
}

/// Forces a SIMD mode for one scope and restores the previous mode on
/// exit (the dispatcher caches the mode process-wide).
class ModeGuard {
 public:
  explicit ModeGuard(simd::Mode mode) : saved_(simd::mode()) {
    simd::set_mode(mode);
  }
  ~ModeGuard() { simd::set_mode(saved_); }

  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  simd::Mode saved_;
};

}  // namespace tdp::scenarios
