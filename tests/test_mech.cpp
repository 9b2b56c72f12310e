// The mechanism-arena battery (ISSUE: pluggable pricing mechanisms).
//
//   * Publish contract: flat-TIP publishes zero rewards and defers
//     nothing; every mechanism's schedule respects the reward cap.
//   * Ordering: on the same seeded fleet, perfect day-ahead information
//     beats the online pricer, which beats doing nothing — the invariant
//     the CI arena gate enforces at 100k is reproduced here at 20k.
//   * Rebate budget: the pacing controller keeps realized spend near the
//     fixed pool, and the mechanism's books (paid_total, days_settled,
//     shares) stay consistent.
//   * Adaptation: with users updating patience from observed rewards, the
//     price schedule settles into a bounded limit cycle — clean and under
//     a 5% chaos fault plan.
//   * Restore: a checkpoint echoes its mechanism config and rejects a
//     mismatched restore; MechanismState round-trips exactly and rejects
//     wrong shapes.
//
// Each mechanism's thread-count and kill/restore invariance is the
// invariance battery's (test_invariance.cpp).
#include "mech/mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "core/paper_data.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"
#include "gtest/gtest.h"
#include "horizon/checkpoint.hpp"
#include "horizon/multi_day_driver.hpp"
#include "mech/oracle.hpp"
#include "mech/rebate.hpp"
#include "scenarios.hpp"

namespace tdp::mech {
namespace {

fleet::FleetDriverConfig arena_config(std::uint64_t users,
                                      std::size_t threads,
                                      MechanismKind kind) {
  fleet::FleetDriverConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.slices = 16;  // fixed layout: same reduction order at any threads
  config.threads = threads;
  config.warmup_days = 1;
  config.online_pricing = true;
  config.mechanism.kind = kind;
  return config;
}

horizon::HorizonConfig small_horizon(MechanismKind kind) {
  horizon::HorizonConfig config = scenarios::small_config();
  config.mechanism.kind = kind;
  return config;
}

double p2a_reduction(const fleet::FleetMetrics& metrics) {
  return metrics.peak_to_average_tip > 0.0
             ? (metrics.peak_to_average_tip - metrics.peak_to_average_tdp) /
                   metrics.peak_to_average_tip
             : 0.0;
}

constexpr MechanismKind kAllKinds[] = {
    MechanismKind::kTubeOnline,
    MechanismKind::kFlatTip,
    MechanismKind::kFixedBudgetRebate,
    MechanismKind::kDayAheadOracle,
};

TEST(MechPublish, FlatTipPublishesNothingAndDefersNothing) {
  fleet::FleetDriver driver(
      arena_config(4000, 2, MechanismKind::kFlatTip));
  for (const double reward : driver.mechanism().rewards()) {
    EXPECT_EQ(reward, 0.0);
  }
  const fleet::FleetMetrics metrics = driver.run_day();
  EXPECT_EQ(metrics.deferred_sessions, 0u);
  EXPECT_EQ(metrics.reward_paid_units, 0.0);
  EXPECT_EQ(metrics.peak_to_average_tip, metrics.peak_to_average_tdp);
  EXPECT_EQ(metrics.offered_units, metrics.realized_units);
}

TEST(MechPublish, EveryScheduleRespectsTheRewardCap) {
  for (const MechanismKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    fleet::FleetDriver driver(arena_config(4000, 2, kind));
    const PricingMechanism& mechanism = driver.mechanism();
    for (const double reward : mechanism.rewards()) {
      EXPECT_GE(reward, 0.0);
      EXPECT_LE(reward, mechanism.reward_cap());
    }
    EXPECT_EQ(mechanism.periods(), 48u);
  }
}

TEST(MechArena, OrderingHoldsOnTheSameSeededFleet) {
  // The CI gate's invariant at bench scale, reproduced here: identical
  // fleets, differing only in mechanism. warmup 3 so every settle loop
  // (oracle re-solve, rebate pacing) reaches its operating point.
  auto run = [](MechanismKind kind) {
    fleet::FleetDriverConfig config = arena_config(20000, 2, kind);
    config.warmup_days = 3;
    fleet::FleetDriver driver(config);
    return p2a_reduction(driver.run_day());
  };
  const double flat = run(MechanismKind::kFlatTip);
  const double tube = run(MechanismKind::kTubeOnline);
  const double oracle = run(MechanismKind::kDayAheadOracle);

  EXPECT_EQ(flat, 0.0);
  EXPECT_GT(tube, 0.05);
  EXPECT_GE(oracle, tube);
}

TEST(MechRebate, PacingKeepsSpendNearThePoolAndBooksConsistent) {
  fleet::FleetDriverConfig config =
      arena_config(20000, 2, MechanismKind::kFixedBudgetRebate);
  config.warmup_days = 3;
  config.mechanism.rebate_pool = 60.0;
  fleet::FleetDriver driver(config);
  const fleet::FleetMetrics metrics = driver.run_day();

  const auto* rebate = dynamic_cast<const FixedBudgetRebateMechanism*>(
      &driver.mechanism());
  ASSERT_NE(rebate, nullptr);
  EXPECT_EQ(rebate->pool(), 60.0);
  // One settle per simulated day (warmup + measured).
  EXPECT_EQ(rebate->days_settled(),
            static_cast<std::uint64_t>(config.warmup_days) + 1u);
  EXPECT_GT(rebate->paid_total(), 0.0);
  // The pacer bounds mean daily spend near the pool (day 1 runs before
  // any feedback, hence the headroom).
  const double mean_paid =
      rebate->paid_total() / static_cast<double>(rebate->days_settled());
  EXPECT_LT(mean_paid, 1.5 * rebate->pool());
  // The measured day runs with a warmed-up controller: at or under pool.
  EXPECT_LE(metrics.reward_paid_units, 1.1 * rebate->pool());
  EXPECT_EQ(metrics.rebate_budget_pool, rebate->pool());
  EXPECT_EQ(metrics.rebate_budget_spent, metrics.reward_paid_units);

  const double share_sum = std::accumulate(
      rebate->shares().begin(), rebate->shares().end(), 0.0);
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_GE(rebate->spend_scale(), 0.1);
  EXPECT_LE(rebate->spend_scale(), 10.0);
}

void expect_adaptive_limit_cycle_bounded(horizon::HorizonConfig config) {
  config.horizon_days = 8;
  config.adaptive_users = true;
  horizon::MultiDayDriver driver(config);
  const horizon::HorizonMetrics metrics = driver.run();

  // Adaptation actually engaged: positive rewards were observed, so every
  // class's patience scale moved off its 1.0 seed and stays in (0, 1].
  bool moved = false;
  for (const double scale : driver.adaptive_scale()) {
    EXPECT_GT(scale, 0.0);
    EXPECT_LE(scale, 1.0);
    if (scale != 1.0) moved = true;
  }
  EXPECT_TRUE(moved);

  // Bounded limit cycle: once the feedback loop has burned in, the
  // day-over-day schedule steps stay small relative to the schedule scale
  // instead of oscillating (users chasing prices chasing users).
  double max_linf_tail = 0.0;
  for (const horizon::DayMetrics& day : metrics.days) {
    if (day.day < 4) continue;
    max_linf_tail = std::max(max_linf_tail, day.reward_step_linf);
  }
  EXPECT_GT(max_linf_tail, 0.0);  // the loop is alive, not frozen
  EXPECT_LT(max_linf_tail, 0.5 * paper::kStaticNormalizationReward);
}

TEST(MechAdaptation, AdaptiveUsersSettleIntoBoundedLimitCycle) {
  expect_adaptive_limit_cycle_bounded(
      small_horizon(MechanismKind::kTubeOnline));
}

TEST(MechAdaptation, AdaptiveUsersStayBoundedUnderChaosFaults) {
  horizon::HorizonConfig config = small_horizon(MechanismKind::kTubeOnline);
  config.fault = scenarios::chaos_plan();
  config.fault.drift_beta_rate = 0.0;
  expect_adaptive_limit_cycle_bounded(config);
}

TEST(MechRestore, MechanismConfigEchoRejectsMismatchedRestore) {
  horizon::HorizonConfig config =
      small_horizon(MechanismKind::kFixedBudgetRebate);
  config.mechanism.rebate_pool = 50.0;
  horizon::MultiDayDriver driver(config);
  driver.step_period();
  const horizon::CheckpointData data = driver.checkpoint();

  // A checkpoint written under one mechanism must not restore under
  // another: the silent alternative is a run whose metrics splice two
  // different pricing schemes.
  horizon::HorizonConfig wrong = config;
  wrong.mechanism.kind = MechanismKind::kTubeOnline;
  EXPECT_THROW(horizon::MultiDayDriver::restore(wrong, data),
               PreconditionError);

  wrong = config;
  wrong.mechanism.kind = MechanismKind::kDayAheadOracle;
  EXPECT_THROW(horizon::MultiDayDriver::restore(wrong, data),
               PreconditionError);

  wrong = config;
  wrong.mechanism.rebate_pool = 51.0;
  EXPECT_THROW(horizon::MultiDayDriver::restore(wrong, data),
               PreconditionError);

  wrong = config;
  wrong.adaptive_users = true;
  EXPECT_THROW(horizon::MultiDayDriver::restore(wrong, data),
               PreconditionError);

  EXPECT_NO_THROW(horizon::MultiDayDriver::restore(config, data));
}

TEST(MechRestore, OracleConfigEchoCoversCapacityTarget) {
  horizon::HorizonConfig config =
      small_horizon(MechanismKind::kDayAheadOracle);
  horizon::MultiDayDriver driver(config);
  driver.step_period();
  const horizon::CheckpointData data = driver.checkpoint();

  horizon::HorizonConfig wrong = config;
  wrong.mechanism.oracle_capacity_target = 0.9;
  EXPECT_THROW(horizon::MultiDayDriver::restore(wrong, data),
               PreconditionError);

  wrong = config;
  wrong.mechanism.oracle_refine = !wrong.mechanism.oracle_refine;
  EXPECT_THROW(horizon::MultiDayDriver::restore(wrong, data),
               PreconditionError);

  EXPECT_NO_THROW(horizon::MultiDayDriver::restore(config, data));
}

TEST(MechState, RebateStateRoundTripsBitwiseAndRejectsWrongShapes) {
  fleet::FleetDriver driver(
      arena_config(2000, 1, MechanismKind::kFixedBudgetRebate));
  const DynamicModel model = fleet::baseline_fluid_model(driver.population());

  MechanismConfig config;
  config.kind = MechanismKind::kFixedBudgetRebate;
  config.rebate_pool = 40.0;
  FixedBudgetRebateMechanism original(model, config);

  // Push the mechanism off its constructor state: one settled day with a
  // synthetic 10% shift out of the first period into the second.
  DaySettlement day;
  day.offered_units = original.tip_demand();
  day.realized_units = original.tip_demand();
  const double moved = 0.1 * day.offered_units[0];
  day.realized_units[0] -= moved;
  day.realized_units[1] += moved;
  day.reward_paid_units = 12.5;
  original.settle_day(day);

  const MechanismState state = original.export_state();
  FixedBudgetRebateMechanism restored(model, config);
  restored.restore_state(state);
  EXPECT_TRUE(restored.rewards() == original.rewards());
  EXPECT_EQ(restored.paid_total(), original.paid_total());
  EXPECT_EQ(restored.days_settled(), original.days_settled());
  EXPECT_EQ(restored.shares(), original.shares());
  EXPECT_EQ(restored.spend_scale(), original.spend_scale());

  // A 6-scalar state, written before the blackout hold existed, restores
  // the same schedule and books with zero hold counters.
  ASSERT_EQ(state.scalars.size(), 8u);
  MechanismState held = state;
  held.scalars[7] = 3.0;  // held_settles
  restored.restore_state(held);
  ASSERT_EQ(restored.held_settles(), 3u);
  MechanismState legacy = state;
  legacy.scalars.resize(6);
  restored.restore_state(legacy);
  EXPECT_TRUE(restored.rewards() == original.rewards());
  EXPECT_EQ(restored.paid_total(), original.paid_total());
  EXPECT_EQ(restored.days_settled(), original.days_settled());
  EXPECT_EQ(restored.shares(), original.shares());
  EXPECT_EQ(restored.spend_scale(), original.spend_scale());
  EXPECT_EQ(restored.held_settles(), 0u);

  MechanismState truncated = state;  // 7 scalars: neither layout
  truncated.scalars.pop_back();
  EXPECT_THROW(restored.restore_state(truncated), PreconditionError);
  MechanismState missing_vector = state;
  missing_vector.vectors.pop_back();
  EXPECT_THROW(restored.restore_state(missing_vector), PreconditionError);
}

TEST(MechState, OracleSettledScheduleSurvivesRestore) {
  fleet::FleetDriver driver(
      arena_config(2000, 1, MechanismKind::kDayAheadOracle));
  const DynamicModel model = fleet::baseline_fluid_model(driver.population());

  MechanismConfig config;
  config.kind = MechanismKind::kDayAheadOracle;
  DayAheadOracleMechanism original(model, DynamicOptimizerOptions{}, config);
  const math::Vector day_ahead = original.rewards();

  // A settled day with uniformly +5% demand moves the schedule.
  DaySettlement day;
  day.offered_units = original.tip_demand();
  for (double& units : day.offered_units) units *= 1.05;
  day.realized_units = day.offered_units;
  original.settle_day(day);
  EXPECT_FALSE(original.rewards() == day_ahead);

  DayAheadOracleMechanism restored(model, DynamicOptimizerOptions{}, config);
  restored.restore_state(original.export_state());
  EXPECT_TRUE(restored.rewards() == original.rewards());
}

}  // namespace
}  // namespace tdp::mech
