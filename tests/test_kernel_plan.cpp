// Bitwise property tests for the fused kernel plan (core/kernel_plan).
//
// The contract under test is *identity*, not closeness: every double the
// fast paths produce must EXPECT_EQ the corresponding reference-path value.
// The reference DeferralKernel / model methods stay in the codebase exactly
// so they can serve as the oracle here.
#include "core/kernel_plan.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cyclic.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/deferral_kernel.hpp"
#include "core/paper_data.hpp"
#include "core/profit.hpp"
#include "core/static_model.hpp"
#include "core/static_optimizer.hpp"
#include "dynamic/dynamic_model.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "dynamic/online_pricer.hpp"
#include "fleet/control_loop.hpp"
#include "fleet/population.hpp"
#include "math/piecewise_linear.hpp"

namespace tdp {
namespace {

enum class WfFamily { kLinearPower, kNonlinearPower };

const char* family_name(WfFamily family) {
  return family == WfFamily::kLinearPower ? "linear" : "nonlinear";
}

/// A demand profile exercising shared waiting functions (one per class,
/// reused across periods), empty periods, and mixed class counts.
DemandProfile make_test_profile(std::size_t n, WfFamily family,
                                LagNormalization normalization,
                                double max_reward) {
  std::vector<WaitingFunctionPtr> wfs;
  for (std::size_t s = 0; s < 4; ++s) {
    const double beta = 0.5 + static_cast<double>(s) * 1.1;
    const double gamma = family == WfFamily::kLinearPower
                             ? 1.0
                             : 0.6 + 0.1 * static_cast<double>(s);
    wfs.push_back(std::make_shared<PowerLawWaitingFunction>(
        beta, n, max_reward, gamma, normalization));
  }

  DemandProfile profile(n);
  Rng rng(17 + n);
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 2 && i % 5 == 4) continue;  // leave some periods empty
    const std::size_t classes = 1 + i % wfs.size();
    for (std::size_t c = 0; c < classes; ++c) {
      profile.add_class(i, SessionClass{wfs[c], 1.0 + rng.uniform(0.0, 4.0)});
    }
  }
  return profile;
}

math::Vector random_rewards(Rng& rng, std::size_t n, double cap) {
  math::Vector rewards(n);
  for (double& r : rewards) {
    const double u = rng.uniform();
    r = u < 0.15 ? 0.0 : rng.uniform(0.0, cap);  // exercise the p <= 0 gate
  }
  return rewards;
}

/// Reference flows straight off the DeferralKernel.
struct ReferenceFlows {
  math::Vector inflow, inflow_derivative, outflow;
  std::vector<double> pair, pair_derivative;
};

ReferenceFlows reference_flows(const DeferralKernel& kernel,
                               const math::Vector& rewards) {
  const std::size_t n = kernel.periods();
  ReferenceFlows ref;
  ref.inflow.resize(n);
  ref.inflow_derivative.resize(n);
  ref.outflow.resize(n);
  ref.pair.assign(n * n, 0.0);
  ref.pair_derivative.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    ref.inflow[i] = kernel.inflow(i, rewards[i]);
    ref.inflow_derivative[i] = kernel.inflow_derivative(i, rewards[i]);
    ref.outflow[i] = kernel.outflow(i, rewards);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      ref.pair[i * n + j] = kernel.pair_volume(i, j, rewards[j]);
      ref.pair_derivative[i * n + j] =
          kernel.pair_volume_derivative(i, j, rewards[j]);
    }
  }
  return ref;
}

void expect_state_matches(const ReferenceFlows& ref, const FlowState& state,
                          std::size_t n, const char* context) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ref.inflow[i], state.inflow[i]) << context << " inflow " << i;
    EXPECT_EQ(ref.inflow_derivative[i], state.inflow_derivative[i])
        << context << " dinflow " << i;
    EXPECT_EQ(ref.outflow[i], state.outflow[i]) << context << " outflow "
                                                << i;
    for (std::size_t j = 0; j < n; ++j) {
      // The plan's pair matrix is column-major, its derivative row-major.
      EXPECT_EQ(ref.pair[i * n + j], state.pair[j * n + i])
          << context << " pair " << i << "->" << j;
      EXPECT_EQ(ref.pair_derivative[i * n + j],
                state.pair_derivative[i * n + j])
          << context << " dpair " << i << "->" << j;
    }
  }
}

TEST(KernelPlan, BitwiseIdentityAcrossConventionsFamiliesAndSizes) {
  Rng rng(2024);
  for (const std::size_t n : {std::size_t{2}, std::size_t{12},
                              std::size_t{48}}) {
    for (const WfFamily family :
         {WfFamily::kLinearPower, WfFamily::kNonlinearPower}) {
      for (const LagConvention convention :
           {LagConvention::kPeriodStart, LagConvention::kUniformArrival}) {
        const LagNormalization norm =
            convention == LagConvention::kPeriodStart
                ? LagNormalization::kDiscrete
                : LagNormalization::kContinuous;
        const DeferralKernel kernel(make_test_profile(n, family, norm, 1.5),
                                    convention);
        const auto plan = kernel.plan();
        ASSERT_NE(plan, nullptr);
        EXPECT_EQ(plan->periods(), n);
        EXPECT_EQ(plan->linear(), kernel.linear());

        FlowState state;
        for (int trial = 0; trial < 3; ++trial) {
          const math::Vector rewards = random_rewards(rng, n, 1.5);
          plan->evaluate(rewards, /*with_derivatives=*/true, state);
          const ReferenceFlows ref = reference_flows(kernel, rewards);
          expect_state_matches(
              ref, state, n,
              (std::string(family_name(family)) + " n=" +
               std::to_string(n))
                  .c_str());
        }
      }
    }
  }
}

TEST(KernelPlan, IncrementalCoordinateUpdateIsBitIdenticalToFullEvaluate) {
  Rng rng(99);
  for (const LagConvention convention :
       {LagConvention::kPeriodStart, LagConvention::kUniformArrival}) {
    const LagNormalization norm = convention == LagConvention::kPeriodStart
                                      ? LagNormalization::kDiscrete
                                      : LagNormalization::kContinuous;
    for (const std::size_t n : {std::size_t{2}, std::size_t{12},
                                std::size_t{48}}) {
      for (const WfFamily family :
           {WfFamily::kLinearPower, WfFamily::kNonlinearPower}) {
        const DeferralKernel kernel(make_test_profile(n, family, norm, 1.5),
                                    convention);
        const auto plan = kernel.plan();

        math::Vector rewards = random_rewards(rng, n, 1.5);
        FlowState incremental;
        plan->evaluate(rewards, /*with_derivatives=*/true, incremental);

        FlowState full;
        for (int step = 0; step < 40; ++step) {
          const std::size_t m = static_cast<std::size_t>(
              rng.uniform() * static_cast<double>(n)) % n;
          const double u = rng.uniform();
          rewards[m] = u < 0.2 ? 0.0 : rng.uniform(0.0, 1.5);
          plan->update_coordinate(m, rewards[m], /*with_derivatives=*/true,
                                  incremental);
          plan->evaluate(rewards, /*with_derivatives=*/true, full);
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(full.inflow[i], incremental.inflow[i]);
            EXPECT_EQ(full.inflow_derivative[i],
                      incremental.inflow_derivative[i]);
            EXPECT_EQ(full.outflow[i], incremental.outflow[i]);
          }
          // Column m of pair (contiguous) and of pair_derivative (strided)
          // was rewritten; every cell of both must equal the full fill's.
          for (std::size_t from = 0; from < n; ++from) {
            for (std::size_t to = 0; to < n; ++to) {
              EXPECT_EQ(full.pair[to * n + from],
                        incremental.pair[to * n + from])
                  << "pair " << from << "->" << to;
              EXPECT_EQ(full.pair_derivative[from * n + to],
                        incremental.pair_derivative[from * n + to])
                  << "dpair " << from << "->" << to;
            }
          }
        }
      }
    }
  }
}

TEST(KernelPlan, UpdateCoordinateRejectsForeignState) {
  const DeferralKernel kernel(
      make_test_profile(6, WfFamily::kNonlinearPower,
                        LagNormalization::kDiscrete, 1.5),
      LagConvention::kPeriodStart);
  FlowState state;
  EXPECT_THROW(kernel.plan()->update_coordinate(0, 0.5, false, state),
               PreconditionError);
}

/// A linear kernel's unit tables from scratch, one lag_weight per (pair,
/// class) summed in class order: what the tables must equal bit for bit,
/// in both layouts, however their rows were built.
void expect_unit_tables_match_per_pair_sums(const DeferralKernel& kernel,
                                            const std::string& context) {
  ASSERT_TRUE(kernel.linear()) << context;
  const std::shared_ptr<const UnitTables> unit = kernel.unit_tables();
  ASSERT_NE(unit, nullptr) << context;
  const std::size_t n = kernel.periods();
  std::vector<double> inflow(n, 0.0);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (to == from) continue;
      const std::size_t lag = cyclic_lag(from, to, n);
      double volume = 0.0;
      for (const SessionClass& sc : kernel.classes(from)) {
        volume += sc.volume *
                  lag_weight(*sc.waiting, 1.0, lag, kernel.convention());
      }
      EXPECT_EQ(unit->by_row[from * n + to], volume)
          << context << " pair " << from << "," << to;
      EXPECT_EQ(unit->by_column[to * n + from], volume)
          << context << " column-major pair " << from << "," << to;
      inflow[to] += volume;
    }
    EXPECT_EQ(unit->by_row[from * n + from], 0.0) << context;
    EXPECT_EQ(unit->by_column[from * n + from], 0.0) << context;
  }
  for (std::size_t to = 0; to < n; ++to) {
    EXPECT_EQ(unit->inflow[to], inflow[to]) << context << " inflow " << to;
  }
}

TEST(KernelMemo, RescaledRebuildsMatchPerPairUnitSums) {
  // The online pricer's pattern: each kernel is built from the previous
  // one, over its profile with one period rescaled, so every other row is
  // copied from the predecessor and the rest read the waiting functions'
  // own unit weights. Neither may move a bit, nor carry rows across lag
  // conventions: the convention switches every second step, on the same
  // waiting-function objects, and on those steps the profile is
  // unchanged, so a predecessor that ignored the convention would lend
  // every row.
  DemandProfile profile = make_test_profile(
      12, WfFamily::kLinearPower, LagNormalization::kContinuous, 1.5);
  Rng rng(41);
  std::optional<DeferralKernel> previous;
  for (std::size_t step = 0; step < 8; ++step) {
    const LagConvention convention = step % 4 < 2
                                         ? LagConvention::kUniformArrival
                                         : LagConvention::kPeriodStart;
    const DeferralKernel kernel(profile, convention,
                                previous ? &*previous : nullptr);
    expect_unit_tables_match_per_pair_sums(kernel,
                                           "step " + std::to_string(step));
    previous = kernel;
    if (step % 2 == 0) {
      profile.scale_period((5 * step) % profile.periods(),
                           rng.uniform(0.8, 1.2));
    }
  }
}

TEST(StaticModelFused, CostAndGradientBitIdenticalToReference) {
  const StaticModel model(
      make_test_profile(12, WfFamily::kNonlinearPower,
                        LagNormalization::kDiscrete, 1.5),
      6.0, math::PiecewiseLinearCost::hinge(3.0, 0.0));
  Rng rng(11);
  FlowState state;
  const std::size_t n = model.periods();
  for (int trial = 0; trial < 8; ++trial) {
    const math::Vector rewards = random_rewards(rng, n, 1.5);
    for (double mu : {1.0, 1e-3}) {
      EXPECT_EQ(model.smoothed_cost(rewards, mu),
                model.smoothed_cost(rewards, mu, state));
      math::Vector ref_grad(n, 0.0);
      math::Vector fused_grad(n, 0.0);
      model.smoothed_gradient(rewards, mu, ref_grad);
      const double fused_value =
          model.smoothed_cost_and_gradient(rewards, mu, fused_grad, state);
      EXPECT_EQ(model.smoothed_cost(rewards, mu), fused_value);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref_grad[i], fused_grad[i]) << "grad " << i;
      }
    }
    // usage / reward_cost overloads (the profit path).
    const math::Vector ref_usage = model.usage(rewards);
    FlowState usage_state;
    const math::Vector fused_usage = model.usage(rewards, usage_state);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref_usage[i], fused_usage[i]);
    }
    EXPECT_EQ(model.reward_cost(rewards), model.reward_cost(usage_state));
  }
}

TEST(StaticOptimizerFused, SolutionBitIdenticalToReferencePath) {
  const StaticModel model = paper::static_model_12();
  StaticOptimizerOptions fused;
  fused.fused = true;
  StaticOptimizerOptions reference;
  reference.fused = false;
  const PricingSolution a = optimize_static_prices(model, fused);
  const PricingSolution b = optimize_static_prices(model, reference);
  ASSERT_EQ(a.rewards.size(), b.rewards.size());
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "reward " << i;
  }
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(StaticOptimizerFused, NonlinearSolveBitIdenticalToReferencePath) {
  const StaticModel model(
      paper::make_profile(paper::table8_mix_12(),
                          paper::kStaticNormalizationReward,
                          LagNormalization::kDiscrete, /*gamma=*/0.7),
      paper::kStaticCapacityUnits,
      math::PiecewiseLinearCost::hinge(paper::kStaticCostSlope, 0.0));
  StaticOptimizerOptions fused;
  fused.fused = true;
  fused.fista.max_iterations = 800;
  StaticOptimizerOptions reference = fused;
  reference.fused = false;
  const PricingSolution a = optimize_static_prices(model, fused);
  const PricingSolution b = optimize_static_prices(model, reference);
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "reward " << i;
  }
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.iterations, b.iterations);
}

DynamicModel nonlinear_dynamic_model() {
  return DynamicModel(
      paper::make_profile(paper::table8_mix_12(),
                          paper::kStaticNormalizationReward,
                          LagNormalization::kContinuous, /*gamma=*/0.7),
      paper::kDynamicCapacityUnits,
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0));
}

/// The shape the horizon re-solves after each fit: one linear (gamma = 1)
/// continuous-lag power law shared by every period, with the index fitted
/// to the golden run's day 2.
DynamicModel reanchor_dynamic_model(double beta = 2.4235450098180569) {
  const std::size_t n = 48;
  const std::vector<double> demand = paper::table5_demand_48();
  DemandProfile profile(n);
  const WaitingFunctionPtr waiting = std::make_shared<PowerLawWaitingFunction>(
      beta, n, paper::kStaticNormalizationReward, 1.0,
      LagNormalization::kContinuous);
  for (std::size_t p = 0; p < n; ++p) {
    profile.add_class(p, SessionClass{waiting, demand[p]});
  }
  return DynamicModel(
      std::move(profile), paper::kDynamicCapacityUnits,
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0));
}

/// A linear model over 10 periods: no row of its n x n matrices is a whole
/// number of 4-wide vectors, so every vector kernel runs its scalar tail.
DynamicModel ten_period_dynamic_model() {
  const std::vector<double> volumes = {4.0, 6.0, 9.0, 12.0, 10.0,
                                       7.0, 5.0, 3.0, 2.0,  3.0};
  DemandProfile profile(volumes.size());
  const WaitingFunctionPtr waiting = std::make_shared<PowerLawWaitingFunction>(
      1.8, volumes.size(), paper::kStaticNormalizationReward, 1.0,
      LagNormalization::kContinuous);
  for (std::size_t p = 0; p < volumes.size(); ++p) {
    profile.add_class(p, SessionClass{waiting, volumes[p]});
  }
  return DynamicModel(
      std::move(profile), 7.0,
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0));
}

/// The fleet's fluid-model shape: Table VII's 48-period mix, continuous
/// lags, gamma = 1.
DemandProfile fleet_profile() {
  return paper::make_profile(paper::table7_mix_48(),
                             paper::kStaticNormalizationReward,
                             LagNormalization::kContinuous);
}

/// The ways the backlog recursion can warm up, which the fused paths'
/// early exits (the exact cost's rejoin, the smoothed paths' day-cyclic
/// exit) must all reproduce bitwise.
enum class Warmup {
  kEmptyAfterDay1,  ///< the link never saturates: day 2 rejoins at once
  kSettlesOnDay2,   ///< the fleet's model: day 2 rejoins day 1 mid-day
  kStillChanging,   ///< never settles: no exit ever fires
  /// Period 0 carries no load and no capacity, so its load equals its
  /// capacity exactly: on day 1 it ends empty (min's tie), and on every
  /// later day it hands the day's start backlog on unchanged. Day 2's
  /// period 0 thus ends with the day-start value yet not with day 1's.
  kLoadEqualsCapacity,
  /// Day 2 meets day 1 at no period; day 3 meets day 2 mid-day, where a
  /// large arrival rounds away the backlog day 2 gained on day 1.
  kRejoinsOnDay3,
};

const char* warmup_name(Warmup shape) {
  switch (shape) {
    case Warmup::kEmptyAfterDay1: return "empty-after-day-1";
    case Warmup::kSettlesOnDay2: return "settles-on-day-2";
    case Warmup::kStillChanging: return "still-changing";
    case Warmup::kLoadEqualsCapacity: return "load-equals-capacity";
    case Warmup::kRejoinsOnDay3: return "rejoins-on-day-3";
  }
  return "?";
}

DynamicModel warmup_model(Warmup shape, std::size_t warmup_days) {
  const math::PiecewiseLinearCost cost =
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0);
  switch (shape) {
    case Warmup::kEmptyAfterDay1:
      return DynamicModel(
          paper::make_profile(paper::table8_mix_12(),
                              paper::kStaticNormalizationReward,
                              LagNormalization::kContinuous, /*gamma=*/0.7),
          2.0 * paper::kDynamicCapacityUnits, cost, warmup_days);
    case Warmup::kSettlesOnDay2:
      return DynamicModel(fleet_profile(), paper::kDynamicCapacityUnits, cost,
                          warmup_days);
    case Warmup::kStillChanging: {
      // Per-period capacity equal to the mean demand: the capacities' sum
      // clears the daily demand only by rounding (the exact sum falls short
      // by ~6e-14), so the backlog creeps up every day and never settles.
      DemandProfile profile = fleet_profile();
      const std::size_t n = profile.periods();
      const std::vector<double> capacity(
          n, profile.total_demand() / static_cast<double>(n));
      return DynamicModel(std::move(profile), capacity, cost, warmup_days);
    }
    case Warmup::kLoadEqualsCapacity: {
      // The fleet's mix without period 0's classes, and no capacity in
      // period 0; with period 0's reward at 0 nothing defers into it.
      const DemandProfile fleet = fleet_profile();
      const std::size_t n = fleet.periods();
      DemandProfile profile(n);
      for (std::size_t p = 1; p < n; ++p) {
        for (const SessionClass& sc : fleet.classes(p)) {
          profile.add_class(p, sc);
        }
      }
      std::vector<double> capacity(n, paper::kDynamicCapacityUnits);
      capacity[0] = 0.0;
      return DynamicModel(std::move(profile), capacity, cost, warmup_days);
    }
    case Warmup::kRejoinsOnDay3: {
      // Four periods, each one class of a function normalized at 1e30, so
      // deferral moves ~1e-30 of a volume, below half an ulp of every
      // volume: at any reward in [0, 1.2] the arrivals are the volumes bit
      // for bit. Every capacity is the mean volume, the last one ulp more,
      // so the capacities clear the demand by rounding alone. Period 0 of
      // day 2 leaves 2^-43 of day 1's end backlog, half an ulp of period
      // 1's load, which rounds that load up and keeps day 2 above day 1
      // at every period; period 0 of day 3 leaves 1.5 ulps, and period
      // 1's load rounds to day 2's.
      const std::vector<double> volumes = {
          0x1.15b764f137f31p+2, 0x1.fb86ff0befabdp+10, 0x1.c74a4cd751291p+2,
          0x1.7039e1793cf3ep-1};
      const std::vector<double> capacity = {
          0x1.fe9207f9e75c9p+8, 0x1.fe9207f9e75c9p+8, 0x1.fe9207f9e75c9p+8,
          0x1.fe9207f9e75cap+8};
      DemandProfile profile(volumes.size());
      const WaitingFunctionPtr waiting =
          std::make_shared<PowerLawWaitingFunction>(
              1.5, volumes.size(), 1e30, 1.0, LagNormalization::kContinuous);
      for (std::size_t p = 0; p < volumes.size(); ++p) {
        profile.add_class(p, SessionClass{waiting, volumes[p]});
      }
      return DynamicModel(std::move(profile), capacity, cost, warmup_days);
    }
  }
  throw PreconditionError("unknown warmup shape");
}

bool same_bits(const math::Vector& a, const math::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Whether the state has settled after `warmup_days`, seen through the
/// public API: one more warmup day leaves evaluate()'s backlog unchanged.
bool settled_after(Warmup shape, std::size_t warmup_days,
                   const math::Vector& rewards) {
  return same_bits(warmup_model(shape, warmup_days).evaluate(rewards).backlog,
                   warmup_model(shape, warmup_days + 1)
                       .evaluate(rewards)
                       .backlog);
}

/// The last warmup day's backlogs after `days` days: day `days`.
math::Vector day_backlog(Warmup shape, std::size_t days,
                         const math::Vector& rewards) {
  return warmup_model(shape, days).evaluate(rewards).backlog;
}

/// The first period at which `day` ends with the bits `before` ended
/// with, or a.size() when it never does.
std::size_t first_meeting(const math::Vector& day,
                          const math::Vector& before) {
  std::size_t i = 0;
  while (i < day.size() && std::memcmp(&day[i], &before[i],
                                       sizeof(double)) != 0) {
    ++i;
  }
  return i;
}

/// Whether `rewards` puts the model in the warmup shape it stands for.
bool in_shape(Warmup shape, std::size_t warmup_days,
              const math::Vector& rewards) {
  switch (shape) {
    case Warmup::kLoadEqualsCapacity: {
      const math::Vector day1 = day_backlog(shape, 1, rewards);
      const math::Vector day2 = day_backlog(shape, 2, rewards);
      return warmup_model(shape, 1).evaluate(rewards).arrivals[0] == 0.0 &&
             day1[0] == 0.0 && day1.back() > 0.0 &&
             std::memcmp(&day2[0], &day1.back(), sizeof(double)) == 0 &&
             first_meeting(day2, day1) > 0;
    }
    case Warmup::kRejoinsOnDay3: {
      const math::Vector day2 = day_backlog(shape, 2, rewards);
      const std::size_t meets = first_meeting(day_backlog(shape, 3, rewards),
                                              day2);
      return first_meeting(day2, day_backlog(shape, 1, rewards)) ==
                 day2.size() &&
             meets > 0 && meets + 1 < day2.size();
    }
    case Warmup::kEmptyAfterDay1:
      for (double b : warmup_model(shape, 1).evaluate(rewards).backlog) {
        if (b != 0.0) return false;
      }
      return true;
    case Warmup::kSettlesOnDay2:
      return !settled_after(shape, 1, rewards) &&
             settled_after(shape, 2, rewards);
    case Warmup::kStillChanging:
      return !settled_after(shape, warmup_days, rewards);
  }
  return false;
}

/// Random rewards that put the model in `shape`. The still-changing shape
/// rests on rounding, so a draw under which it settles after all is drawn
/// again; the other shapes hold with wide margins, the load-equals-capacity
/// one with period 0's reward at 0 (a coordinate move there is drawn
/// again) and the day-3 one at every reward the tests draw.
math::Vector rewards_in_shape(Warmup shape, std::size_t warmup_days,
                              std::size_t n, Rng& rng) {
  math::Vector rewards;
  for (int draw = 0; draw < 32; ++draw) {
    rewards = random_rewards(rng, n, 1.2);
    if (shape == Warmup::kLoadEqualsCapacity) rewards[0] = 0.0;
    if (in_shape(shape, warmup_days, rewards)) return rewards;
  }
  ADD_FAILURE() << "no reward draw puts the model in shape "
                << warmup_name(shape);
  return rewards;
}

constexpr Warmup kWarmupShapes[] = {
    Warmup::kEmptyAfterDay1, Warmup::kSettlesOnDay2, Warmup::kStillChanging,
    Warmup::kLoadEqualsCapacity, Warmup::kRejoinsOnDay3};
constexpr std::size_t kWarmupDays[] = {1, 2, 6};

void expect_cost_and_gradient_match(const DynamicModel& model,
                                    const math::Vector& rewards,
                                    FlowState& state, const char* context) {
  const std::size_t n = model.periods();
  EXPECT_EQ(model.total_cost(rewards), model.total_cost(rewards, state))
      << context;
  for (double mu : {1.0, 1e-4}) {
    EXPECT_EQ(model.smoothed_cost(rewards, mu),
              model.smoothed_cost(rewards, mu, state))
        << context << " mu " << mu;
    math::Vector ref_grad(n, 0.0);
    math::Vector fused_grad(n, 0.0);
    model.smoothed_gradient(rewards, mu, ref_grad);
    const double fused_value =
        model.smoothed_cost_and_gradient(rewards, mu, fused_grad, state);
    EXPECT_EQ(model.smoothed_cost(rewards, mu), fused_value)
        << context << " mu " << mu;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref_grad[i], fused_grad[i])
          << context << " mu " << mu << " grad " << i;
    }
  }
}

TEST(DynamicModelFused, CostAndGradientBitIdenticalToReference) {
  {
    const DynamicModel model = nonlinear_dynamic_model();
    Rng rng(21);
    FlowState state;
    for (int trial = 0; trial < 8; ++trial) {
      expect_cost_and_gradient_match(
          model, random_rewards(rng, model.periods(), 1.5), state,
          "nonlinear");
    }
  }
  // Every warmup shape at every warmup length: the exits fire on day 2,
  // day 3 or never, at a day's first period or mid-day.
  for (const Warmup shape : kWarmupShapes) {
    for (const std::size_t warmup_days : kWarmupDays) {
      const DynamicModel model = warmup_model(shape, warmup_days);
      const std::string context = std::string(warmup_name(shape)) +
                                  " warmup " + std::to_string(warmup_days);
      Rng rng(22);
      FlowState state;
      for (int trial = 0; trial < 4; ++trial) {
        expect_cost_and_gradient_match(
            model,
            rewards_in_shape(shape, warmup_days, model.periods(), rng),
            state, context.c_str());
      }
    }
  }
  // A linear plan writes its reward-independent derivative table into a
  // state once; a state primed on linear model A, then B, then A again must
  // hold each model's own table, bit for bit what a fresh state computes.
  {
    const DynamicModel a = reanchor_dynamic_model();
    const DynamicModel b = reanchor_dynamic_model(1.3);
    ASSERT_TRUE(a.kernel().linear());
    ASSERT_TRUE(b.kernel().linear());
    Rng rng(23);
    FlowState shared;
    const DynamicModel* sequence[] = {&a, &b, &a};
    for (std::size_t step = 0; step < 3; ++step) {
      const DynamicModel& model = *sequence[step];
      const std::string context = "linear A/B/A step " + std::to_string(step);
      const math::Vector rewards = random_rewards(rng, model.periods(), 0.3);
      for (double mu : {1.0, 1e-4}) {
        FlowState fresh;
        math::Vector fresh_grad(model.periods(), 0.0);
        math::Vector shared_grad(model.periods(), 0.0);
        EXPECT_EQ(
            model.smoothed_cost_and_gradient(rewards, mu, fresh_grad, fresh),
            model.smoothed_cost_and_gradient(rewards, mu, shared_grad, shared))
            << context << " mu " << mu;
        EXPECT_TRUE(same_bits(fresh_grad, shared_grad))
            << context << " mu " << mu;
        EXPECT_TRUE(same_bits(fresh.pair_derivative, shared.pair_derivative))
            << context << " mu " << mu;
      }
      expect_cost_and_gradient_match(model, rewards, shared, context.c_str());
    }
  }
}

TEST(DynamicModelFused, CoordinateUpdateCostMatchesReference) {
  {
    const DynamicModel model = nonlinear_dynamic_model();
    Rng rng(31);
    const std::size_t n = model.periods();
    math::Vector rewards = random_rewards(rng, n, 1.2);
    FlowState state;
    model.prime_flow_state(rewards, /*with_derivatives=*/false, state);
    for (int step = 0; step < 30; ++step) {
      const std::size_t m = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(n)) % n;
      rewards[m] = rng.uniform(0.0, 1.2);
      EXPECT_EQ(model.total_cost(rewards),
                model.total_cost_with_coordinate(m, rewards[m], state));
    }
  }
  for (const Warmup shape : kWarmupShapes) {
    for (const std::size_t warmup_days : kWarmupDays) {
      const DynamicModel model = warmup_model(shape, warmup_days);
      Rng rng(32);
      const std::size_t n = model.periods();
      math::Vector rewards = rewards_in_shape(shape, warmup_days, n, rng);
      FlowState state;
      model.prime_flow_state(rewards, /*with_derivatives=*/false, state);
      for (int step = 0; step < 12; ++step) {
        // One coordinate moves per step; a move that takes the model out
        // of its shape is drawn again.
        std::size_t m = 0;
        math::Vector next;
        for (int draw = 0; draw < 32; ++draw) {
          next = rewards;
          m = static_cast<std::size_t>(
              rng.uniform() * static_cast<double>(n)) % n;
          next[m] = rng.uniform(0.0, 1.2);
          if (in_shape(shape, warmup_days, next)) break;
        }
        ASSERT_TRUE(in_shape(shape, warmup_days, next))
            << warmup_name(shape) << " warmup " << warmup_days;
        rewards = next;
        EXPECT_EQ(model.total_cost(rewards),
                  model.total_cost_with_coordinate(m, rewards[m], state))
            << warmup_name(shape) << " warmup " << warmup_days << " step "
            << step;
      }
    }
  }
}

TEST(DynamicOptimizerFused, SolutionBitIdenticalToReferencePath) {
  // The 12-period nonlinear model, the linear 48-period shape the horizon
  // re-solves, and a 10-period one whose rows end in vector tails.
  const std::pair<const char*, DynamicModel> models[] = {
      {"nonlinear 12", nonlinear_dynamic_model()},
      {"re-anchor 48", reanchor_dynamic_model()},
      {"linear 10", ten_period_dynamic_model()},
  };
  for (const auto& [name, model] : models) {
    DynamicOptimizerOptions fused;
    fused.fused = true;
    fused.fista.max_iterations = 600;
    DynamicOptimizerOptions reference = fused;
    reference.fused = false;
    const DynamicPricingSolution a = optimize_dynamic_prices(model, fused);
    const DynamicPricingSolution b = optimize_dynamic_prices(model, reference);
    ASSERT_EQ(a.rewards.size(), b.rewards.size()) << name;
    for (std::size_t i = 0; i < a.rewards.size(); ++i) {
      EXPECT_EQ(a.rewards[i], b.rewards[i]) << name << " reward " << i;
    }
    EXPECT_EQ(a.evaluation.total_cost, b.evaluation.total_cost) << name;
    EXPECT_EQ(a.iterations, b.iterations) << name;
  }
}

TEST(OnlinePricerIncremental, DayOfObservationsBitIdenticalToReference) {
  DynamicOptimizerOptions offline;
  offline.fista.max_iterations = 400;

  OnlinePricer incremental(nonlinear_dynamic_model(), offline,
                           PricerGuardConfig{}, /*incremental=*/true);
  OnlinePricer reference(nonlinear_dynamic_model(), offline,
                         PricerGuardConfig{}, /*incremental=*/false);
  EXPECT_TRUE(incremental.incremental());
  EXPECT_FALSE(reference.incremental());

  const std::size_t n = incremental.periods();
  Rng rng(404);
  for (std::size_t period = 0; period < n; ++period) {
    // Mix confirmed forecasts (scale-by-1.0 resyncs) with real deviations.
    const double forecast =
        incremental.model().arrivals().tip_demand(period);
    const bool confirmed = period % 3 == 0;
    const double measured =
        confirmed ? forecast : forecast * rng.uniform(0.8, 1.2);
    const KernelPlan* plan = incremental.model().kernel().plan().get();
    const auto a = incremental.observe_period(period, measured);
    const auto b = reference.observe_period(period, measured);
    EXPECT_EQ(a.new_reward, b.new_reward) << "period " << period;
    EXPECT_EQ(a.expected_cost, b.expected_cost) << "period " << period;
    if (confirmed) {
      // The rebuilt kernel is the one it replaced: the solve resyncs its
      // primed pair matrix instead of repriming.
      EXPECT_EQ(incremental.model().kernel().plan().get(), plan)
          << "period " << period;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(incremental.rewards()[i], reference.rewards()[i]);
  }

  // The shape every workload runs: the fleet's 48-period gamma = 1 model,
  // three days of measurements within +-20% of the baseline forecast, and
  // one surge the 2% stability clamp must cut back.
  const DynamicModel fleet(fleet_profile(), paper::kDynamicCapacityUnits,
                           math::PiecewiseLinearCost::hinge(
                               paper::kDynamicCostSlope, 0.0));
  OnlinePricer fleet_incremental(fleet, offline, PricerGuardConfig{},
                                 /*incremental=*/true);
  OnlinePricer fleet_reference(fleet, offline, PricerGuardConfig{},
                               /*incremental=*/false);
  const std::size_t periods = fleet.periods();
  const std::size_t surge_step = periods + 20;  // day 2, period 20
  for (std::size_t step = 0; step < 3 * periods; ++step) {
    const std::size_t period = step % periods;
    const double forecast = fleet.arrivals().tip_demand(period);
    const double measured = step == surge_step
                                ? 10.0 * forecast
                                : forecast * rng.uniform(0.8, 1.2);
    const auto a = fleet_incremental.observe_period(period, measured);
    const auto b = fleet_reference.observe_period(period, measured);
    EXPECT_EQ(a.new_reward, b.new_reward) << "step " << step;
    EXPECT_EQ(a.expected_cost, b.expected_cost) << "step " << step;
    if (step == surge_step) {
      EXPECT_LT(fleet_incremental.model().arrivals().tip_demand(period),
                measured)
          << "the surge must hit the stability clamp";
    }
  }
  for (std::size_t i = 0; i < periods; ++i) {
    EXPECT_EQ(fleet_incremental.rewards()[i], fleet_reference.rewards()[i]);
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// `a` against `b` by bit pattern: every class volume (the profile's and
/// the kernel's snapshot) and TIP demand, the three unit tables, the
/// validity bound and the reward cap, and the exact cost at random rewards
/// through the reference path, the plan and a coordinate update (the
/// fused paths read the model's cached TIP vector).
void expect_same_model(const DynamicModel& a, const DynamicModel& b,
                       Rng& rng, const std::string& context) {
  const std::size_t n = a.periods();
  ASSERT_EQ(n, b.periods()) << context;
  for (std::size_t p = 0; p < n; ++p) {
    const std::vector<SessionClass>& classes = a.arrivals().classes(p);
    const std::vector<SessionClass>& expected = b.arrivals().classes(p);
    ASSERT_EQ(classes.size(), expected.size()) << context;
    ASSERT_EQ(a.kernel().classes(p).size(), classes.size()) << context;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      EXPECT_EQ(classes[c].waiting, expected[c].waiting) << context;
      EXPECT_EQ(bits(classes[c].volume), bits(expected[c].volume))
          << context << " period " << p << " class " << c;
      EXPECT_EQ(bits(a.kernel().classes(p)[c].volume),
                bits(classes[c].volume))
          << context << " kernel period " << p << " class " << c;
    }
    EXPECT_EQ(bits(a.arrivals().tip_demand(p)),
              bits(b.arrivals().tip_demand(p)))
        << context << " tip " << p;
  }
  const std::shared_ptr<const UnitTables> unit = a.kernel().unit_tables();
  const std::shared_ptr<const UnitTables> expected_unit =
      b.kernel().unit_tables();
  ASSERT_EQ(unit == nullptr, expected_unit == nullptr) << context;
  if (unit != nullptr) {
    EXPECT_TRUE(same_bits(unit->by_row, expected_unit->by_row)) << context;
    EXPECT_TRUE(same_bits(unit->by_column, expected_unit->by_column))
        << context;
    EXPECT_TRUE(same_bits(unit->inflow, expected_unit->inflow)) << context;
  }
  EXPECT_EQ(bits(a.kernel().max_safe_reward()),
            bits(b.kernel().max_safe_reward()))
      << context;
  EXPECT_EQ(bits(a.reward_cap()), bits(b.reward_cap())) << context;
  FlowState state;
  FlowState expected_state;
  for (int trial = 0; trial < 2; ++trial) {
    const math::Vector rewards = random_rewards(rng, n, 1.2);
    EXPECT_EQ(bits(a.total_cost(rewards)), bits(b.total_cost(rewards)))
        << context;
    EXPECT_EQ(bits(a.total_cost(rewards, state)),
              bits(b.total_cost(rewards, expected_state)))
        << context;
    const std::size_t m =
        static_cast<std::size_t>(rng.uniform() * static_cast<double>(n)) % n;
    const double reward = rng.uniform(0.0, 1.2);
    EXPECT_EQ(bits(a.total_cost_with_coordinate(m, reward, state)),
              bits(b.total_cost_with_coordinate(m, reward, expected_state)))
        << context << " coordinate " << m;
  }
}

TEST(DynamicModelRescale, InPlaceChainMatchesWithArrivalsBitwise) {
  // The online pricer's update: one period's volumes rescaled in place,
  // the kernel rebuilt from the one it replaces. Each step must equal what
  // with_arrivals builds from an equally scaled copy of the profile, on the
  // fleet's linear baseline and on a gamma = 0.7 model, through factors of
  // 1.0 (a confirmed forecast: the kernel keeps its state and plan) and 0.
  fleet::PopulationConfig config;
  config.users = 1000;
  config.periods = 48;
  const fleet::Population population(config);
  const std::pair<const char*, DynamicModel> models[] = {
      {"fleet baseline", fleet::baseline_fluid_model(population)},
      {"gamma 0.7", nonlinear_dynamic_model()},
  };
  for (const auto& [name, start] : models) {
    DynamicModel in_place = start;
    DynamicModel rebuilt = start;
    const std::size_t n = start.periods();
    Rng rng(77);
    for (std::size_t step = 0; step < 48; ++step) {
      const std::size_t period = (7 * step) % n;
      const double factor = step % 6 == 2 ? 1.0
                            : step == 9   ? 0.0
                                          : rng.uniform(0.8, 1.2);
      const std::string context = std::string(name) + " step " +
                                  std::to_string(step) + " factor " +
                                  std::to_string(factor);
      const KernelPlan* plan = in_place.kernel().plan().get();
      const std::shared_ptr<const UnitTables> unit =
          in_place.kernel().unit_tables();
      in_place.rescale_period(period, factor);
      DemandProfile scaled = rebuilt.arrivals();
      scaled.scale_period(period, factor);
      rebuilt = rebuilt.with_arrivals(std::move(scaled));
      if (factor == 1.0) {
        EXPECT_EQ(in_place.kernel().plan().get(), plan) << context;
        EXPECT_EQ(in_place.kernel().unit_tables(), unit) << context;
      }
      expect_same_model(in_place, rebuilt, rng, context);
      // The pricer's stability clamp sums the cached TIP vector and reads
      // the capacity summed at construction: each must be the sum it
      // replaced, bit for bit.
      double tip_total = 0.0;
      for (double d : in_place.tip_demand()) tip_total += d;
      EXPECT_EQ(bits(tip_total), bits(in_place.arrivals().total_demand()))
          << context;
      double capacity_total = 0.0;
      for (double a : in_place.capacity()) capacity_total += a;
      EXPECT_EQ(bits(in_place.total_capacity()), bits(capacity_total))
          << context;
    }
    // A factor past the capacity check throws, as with_arrivals does, and
    // leaves the model as it was.
    ASSERT_GT(in_place.arrivals().tip_demand(1), 0.0) << name;
    DemandProfile surge = in_place.arrivals();
    surge.scale_period(1, 1e6);
    EXPECT_THROW(rebuilt.with_arrivals(std::move(surge)), PreconditionError)
        << name;
    EXPECT_THROW(in_place.rescale_period(1, 1e6), PreconditionError) << name;
    expect_same_model(in_place, rebuilt, rng, std::string(name) + " throw");
    // The chain's end against a model built with no predecessor, and the
    // unit tables against the per-pair reference sums.
    const DynamicModel fresh(in_place.arrivals(), in_place.capacity(),
                             in_place.backlog_cost(),
                             in_place.warmup_days());
    expect_same_model(in_place, fresh, rng, std::string(name) + " fresh");
    if (in_place.kernel().linear()) {
      expect_unit_tables_match_per_pair_sums(in_place.kernel(), name);
    }
  }
}

TEST(ProfitFused, BreakdownMatchesReferenceAccessors) {
  const StaticModel model = paper::static_model_12();
  Rng rng(8);
  const math::Vector rewards = random_rewards(rng, model.periods(), 1.5);
  const ProfitBreakdown out = evaluate_profit(model, rewards, 2.0, 0.5);
  const math::Vector x = model.usage(rewards);
  EXPECT_EQ(out.reward_cost, model.reward_cost(rewards));
  EXPECT_EQ(out.capacity_cost, model.capacity_cost_value(x));
}

}  // namespace
}  // namespace tdp
