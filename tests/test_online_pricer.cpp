#include "dynamic/online_pricer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dynamic/paper_dynamic.hpp"

namespace tdp {
namespace {

DynamicOptimizerOptions fast_options() {
  DynamicOptimizerOptions opts;
  opts.fista.max_iterations = 1500;
  opts.mu_final = 1e-4;
  return opts;
}

TEST(OnlinePricer, InitializesFromOfflineSolution) {
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options());
  EXPECT_EQ(pricer.rewards().size(), 48u);
  double max_reward = 0.0;
  for (double p : pricer.rewards()) {
    EXPECT_GE(p, 0.0);
    max_reward = std::max(max_reward, p);
  }
  EXPECT_GT(max_reward, 0.0);
}

TEST(OnlinePricer, ObservingTheForecastBarelyMovesTheReward) {
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options());
  const double forecast = pricer.model().arrivals().tip_demand(0);
  const double cost_before = pricer.expected_cost();
  const auto step = pricer.observe_period(0, forecast);
  EXPECT_EQ(step.period, 0u);
  // The 1-D re-optimization can only improve the objective.
  EXPECT_LE(step.expected_cost, cost_before + 1e-6);
  EXPECT_NEAR(step.new_reward, step.old_reward, 0.05);
}

TEST(OnlinePricer, Section5BOnlineExperiment) {
  // "While running the online algorithm, the ISP finds that 200 instead of
  // 230 MBps arrives in period 1" — the adjusted rewards must beat keeping
  // the nominal schedule on the updated model.
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options());
  const math::Vector nominal = pricer.rewards();
  const auto step = pricer.observe_period(0, 20.0);  // 200 MBps
  const double adjusted_cost = pricer.expected_cost();
  const double nominal_cost = pricer.model().total_cost(nominal);
  EXPECT_LE(adjusted_cost, nominal_cost + 1e-9);
  EXPECT_NE(step.new_reward, step.old_reward);
  // The updated demand estimate is in force.
  EXPECT_NEAR(pricer.model().arrivals().tip_demand(0), 20.0, 1e-9);
}

TEST(OnlinePricer, SequentialObservationsKeepImproving) {
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options());
  // A day where the morning runs 10% hot and the evening 10% cold.
  double previous_cost = pricer.expected_cost();
  (void)previous_cost;
  for (std::size_t period = 0; period < 8; ++period) {
    const double forecast = pricer.model().arrivals().tip_demand(period);
    const double measured = forecast * (period < 4 ? 1.1 : 0.9);
    const auto step = pricer.observe_period(period, measured);
    // After the demand update, the 1-D step never does worse than leaving
    // this period's reward alone.
    math::Vector keep = pricer.rewards();
    keep[period] = step.old_reward;
    EXPECT_LE(step.expected_cost, pricer.model().total_cost(keep) + 1e-9);
  }
}

TEST(OnlinePricer, SurgeObservationIsClampedNotFatal) {
  // A measured surge that would push total demand past total capacity must
  // not destroy the model (the backlog recursion would have no steady
  // state); the update clamps to a stable level instead.
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options());
  const auto step = pricer.observe_period(0, 1e6);
  EXPECT_EQ(step.period, 0u);
  double total = pricer.model().arrivals().total_demand();
  double capacity = 0.0;
  for (double a : pricer.model().capacity()) capacity += a;
  EXPECT_LT(total, capacity);
  // The pricer remains usable afterwards.
  pricer.observe_period(1, pricer.model().arrivals().tip_demand(1));
}

TEST(OnlinePricer, ZeroArrivalObservation) {
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options());
  const auto step = pricer.observe_period(5, 0.0);
  EXPECT_NEAR(pricer.model().arrivals().tip_demand(5), 0.0, 1e-12);
  EXPECT_GE(step.new_reward, 0.0);
}

TEST(OnlinePricer, RejectsBadObservations) {
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options());
  EXPECT_THROW(pricer.observe_period(48, 10.0), PreconditionError);
  EXPECT_THROW(pricer.observe_period(0, -1.0), PreconditionError);
  // An explicit budget of zero is rejected; only an unset one defaults to
  // the guard's budget.
  EXPECT_THROW(pricer.observe_period(0, 10.0, /*degraded_input=*/false,
                                     /*iteration_budget=*/0),
               PreconditionError);
}

// --- guarded observe path / health ladder ---------------------------------

TEST(OnlinePricer, GuardedObserveWithDefaultsMatchesLegacyBitwise) {
  OnlinePricer legacy(paper::dynamic_model_48(), fast_options());
  OnlinePricer guarded(paper::dynamic_model_48(), fast_options());
  for (std::size_t period = 0; period < 6; ++period) {
    const double forecast = legacy.model().arrivals().tip_demand(period);
    const double measured = forecast * (period % 2 == 0 ? 1.07 : 0.91);
    const auto a = legacy.observe_period(period, measured);
    const auto b = guarded.observe_period(
        period, measured, /*degraded_input=*/false,
        guarded.guard().solver_max_iterations);
    EXPECT_EQ(a.new_reward, b.new_reward) << "period " << period;
    EXPECT_EQ(a.expected_cost, b.expected_cost) << "period " << period;
  }
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(legacy.rewards()[i], guarded.rewards()[i]) << "reward " << i;
  }
  EXPECT_EQ(guarded.health(), PricerHealth::kHealthy);
  EXPECT_EQ(guarded.health_stats().healthy_observations, 6u);
  EXPECT_EQ(guarded.health_stats().transitions, 0u);
}

TEST(OnlinePricer, StarvedSolveKeepsPreviousRewardWhenConfigured) {
  PricerGuardConfig guard;
  guard.keep_reward_on_failure = true;
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options(), guard);
  const double before = pricer.rewards()[0];
  const double forecast = pricer.model().arrivals().tip_demand(0);
  // Two golden-section iterations cannot converge on any real bracket.
  const auto step = pricer.observe_period(0, forecast * 0.5,
                                          /*degraded_input=*/false,
                                          /*iteration_budget=*/2);
  EXPECT_TRUE(step.solve_failed);
  EXPECT_EQ(step.new_reward, before);
  EXPECT_EQ(pricer.rewards()[0], before);
  EXPECT_EQ(pricer.health_stats().solve_failures, 1u);
  // A failed solve is a bad observation: the ladder leaves HEALTHY.
  EXPECT_EQ(pricer.health(), PricerHealth::kDegraded);
}

TEST(OnlinePricer, TrustRegionClampsLargeSteps) {
  PricerGuardConfig guard;
  guard.trust_region_fraction = 1e-4;  // 0.01% of the reward cap per step
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options(), guard);
  // A drastic demand shift wants a large reward move; the trust region
  // bounds it to a fraction of what the unguarded pricer would do.
  OnlinePricer free(paper::dynamic_model_48(), fast_options());
  const auto free_step = free.observe_period(0, 1.0);
  const double free_move =
      std::abs(free_step.new_reward - free_step.old_reward);
  ASSERT_GT(free_move, 0.0);

  const double before = pricer.rewards()[0];
  const auto step =
      pricer.observe_period(0, 1.0, /*degraded_input=*/false,
                            pricer.guard().solver_max_iterations);
  EXPECT_TRUE(step.clamped);
  EXPECT_LT(std::abs(step.new_reward - before), free_move);
  EXPECT_EQ(pricer.health_stats().clamped_steps, 1u);
}

TEST(OnlinePricer, HealthLadderDescendsAndRecovers) {
  PricerGuardConfig guard;
  guard.fallback_after = 2;
  guard.recover_after = 2;
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options(), guard);
  const auto feed = [&](std::size_t period, bool degraded) {
    const double forecast = pricer.model().arrivals().tip_demand(period);
    pricer.observe_period(period, forecast, degraded,
                          pricer.guard().solver_max_iterations);
  };

  EXPECT_EQ(pricer.health(), PricerHealth::kHealthy);
  feed(0, true);
  EXPECT_EQ(pricer.health(), PricerHealth::kDegraded);
  feed(1, true);
  EXPECT_EQ(pricer.health(), PricerHealth::kFallback);

  // In FALLBACK degraded inputs freeze the schedule entirely.
  const math::Vector frozen = pricer.rewards();
  const auto step = pricer.observe_period(
      2, 1e5, /*degraded_input=*/true, pricer.guard().solver_max_iterations);
  EXPECT_TRUE(step.skipped);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(pricer.rewards()[i], frozen[i]);
  }
  EXPECT_EQ(pricer.health_stats().skipped_updates, 1u);

  // Clean observations climb back one rung at a time.
  feed(3, false);
  feed(4, false);
  EXPECT_EQ(pricer.health(), PricerHealth::kDegraded);
  feed(5, false);
  feed(6, false);
  EXPECT_EQ(pricer.health(), PricerHealth::kHealthy);

  const PricerHealthStats& stats = pricer.health_stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GE(stats.max_recovery_periods, 6u);
  EXPECT_EQ(stats.transitions, 4u);  // H->D, D->F, F->D, D->H
  ASSERT_EQ(pricer.health_transitions().size(), 4u);
  EXPECT_EQ(pricer.health_transitions()[0].from, PricerHealth::kHealthy);
  EXPECT_EQ(pricer.health_transitions()[1].to, PricerHealth::kFallback);
  EXPECT_EQ(pricer.health_transitions()[3].to, PricerHealth::kHealthy);
}

TEST(OnlinePricer, MissedObservationsAdvanceTheLadder) {
  PricerGuardConfig guard;
  guard.fallback_after = 2;
  OnlinePricer pricer(paper::dynamic_model_48(), fast_options(), guard);
  const math::Vector before = pricer.rewards();
  pricer.observe_missed(0);
  pricer.observe_missed(1);
  EXPECT_EQ(pricer.health(), PricerHealth::kFallback);
  EXPECT_EQ(pricer.health_stats().missed_observations, 2u);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(pricer.rewards()[i], before[i]);  // schedule untouched
  }
}

TEST(OnlinePricer, GuardConfigValidation) {
  PricerGuardConfig zero_budget;
  zero_budget.solver_max_iterations = 0;
  EXPECT_THROW(OnlinePricer(paper::dynamic_model_48(), fast_options(),
                            zero_budget),
               PreconditionError);
  PricerGuardConfig bad_fraction;
  bad_fraction.trust_region_fraction = -0.5;
  EXPECT_THROW(OnlinePricer(paper::dynamic_model_48(), fast_options(),
                            bad_fraction),
               PreconditionError);
}

}  // namespace
}  // namespace tdp
