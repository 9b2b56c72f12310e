// FaultInjector property tests (determinism, query-order independence)
// and MeasurementGuard sanitization tests. A chaos run's thread-count
// invariance is the invariance battery's (test_invariance.cpp).
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "tube/measurement_guard.hpp"

namespace tdp {
namespace {

FaultPlan mixed_plan() {
  FaultPlan plan;
  plan.price_pull_drop = 0.2;
  plan.clock_skew = 0.05;
  plan.measurement_loss = 0.1;
  plan.measurement_nan = 0.05;
  plan.measurement_negative = 0.05;
  plan.measurement_spike = 0.1;
  plan.solver_exhaustion = 0.15;
  plan.measurement_blackouts = {7, 3};
  return plan;
}

TEST(FaultInjector, DisabledInjectorNeverFires) {
  const FaultInjector off;
  EXPECT_FALSE(off.enabled());
  for (std::uint64_t e = 0; e < 16; ++e) {
    for (std::uint64_t t = 0; t < 64; ++t) {
      EXPECT_FALSE(off.drop_price_pull(e, t));
      EXPECT_FALSE(off.skew_clock(e, t));
      EXPECT_EQ(off.measurement_fault(e, t),
                FaultInjector::MeasurementFault::kNone);
      EXPECT_FALSE(off.exhaust_solver(t));
    }
  }
}

TEST(FaultInjector, ZeroRatePlanIsDisabled) {
  const FaultInjector zero{FaultPlan{}};
  EXPECT_FALSE(zero.enabled());
}

TEST(FaultInjector, SameSeedSamePlanGivesIdenticalSequences) {
  const FaultInjector a(mixed_plan());
  const FaultInjector b(mixed_plan());
  for (std::uint64_t e = 0; e < 32; ++e) {
    for (std::uint64_t t = 0; t < 256; ++t) {
      EXPECT_EQ(a.drop_price_pull(e, t), b.drop_price_pull(e, t));
      EXPECT_EQ(a.drop_price_pull(e, t, 1), b.drop_price_pull(e, t, 1));
      EXPECT_EQ(a.skew_clock(e, t), b.skew_clock(e, t));
      EXPECT_EQ(a.measurement_fault(e, t), b.measurement_fault(e, t));
      EXPECT_EQ(a.exhaust_solver(t), b.exhaust_solver(t));
    }
  }
}

TEST(FaultInjector, DecisionsAreIndependentOfQueryOrder) {
  const FaultInjector injector(mixed_plan());
  // Record decisions row-major, then re-query column-major and reversed:
  // a stateful injector would give different answers.
  std::vector<bool> drops;
  for (std::uint64_t e = 0; e < 16; ++e) {
    for (std::uint64_t t = 0; t < 64; ++t) {
      drops.push_back(injector.drop_price_pull(e, t));
    }
  }
  for (std::uint64_t t = 64; t-- > 0;) {
    for (std::uint64_t e = 16; e-- > 0;) {
      EXPECT_EQ(injector.drop_price_pull(e, t), drops[e * 64 + t]);
    }
  }
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSequences) {
  FaultPlan other = mixed_plan();
  other.seed ^= 0xDEADBEEFull;
  const FaultInjector a(mixed_plan());
  const FaultInjector b(other);
  std::size_t differing = 0;
  for (std::uint64_t e = 0; e < 32; ++e) {
    for (std::uint64_t t = 0; t < 256; ++t) {
      differing += a.drop_price_pull(e, t) != b.drop_price_pull(e, t);
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, BlackoutPeriodsAlwaysLoseEveryDomain) {
  const FaultInjector injector(mixed_plan());  // blackouts {3, 7}
  const std::uint64_t entities[] = {0, 5, FaultInjector::kAggregateEntity};
  for (std::uint64_t entity : entities) {
    EXPECT_EQ(injector.measurement_fault(entity, 3),
              FaultInjector::MeasurementFault::kLost);
    EXPECT_EQ(injector.measurement_fault(entity, 7),
              FaultInjector::MeasurementFault::kLost);
  }
}

TEST(FaultInjector, RatesApproximateProbabilities) {
  FaultPlan plan;
  plan.price_pull_drop = 0.25;
  const FaultInjector injector(plan);
  std::size_t fired = 0;
  const std::size_t trials = 20000;
  for (std::size_t i = 0; i < trials; ++i) {
    fired += injector.drop_price_pull(i % 7, i);
  }
  const double rate = static_cast<double>(fired) / trials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultInjector, CorruptionShapesMatchFaultKinds) {
  const FaultInjector injector(mixed_plan());
  using F = FaultInjector::MeasurementFault;
  EXPECT_EQ(injector.corrupt(F::kNone, 42.0), 42.0);
  EXPECT_TRUE(std::isnan(injector.corrupt(F::kNaN, 42.0)));
  EXPECT_LT(injector.corrupt(F::kNegative, 42.0), 0.0);
  EXPECT_LT(injector.corrupt(F::kNegative, 0.0), 0.0);
  EXPECT_GT(injector.corrupt(F::kSpike, 42.0), 42.0 * 7.9);
}

TEST(FaultInjector, RejectsInvalidPlans) {
  FaultPlan bad;
  bad.price_pull_drop = 1.5;
  EXPECT_THROW(FaultInjector{bad}, PreconditionError);
  FaultPlan sums;
  sums.measurement_loss = 0.6;
  sums.measurement_nan = 0.6;
  EXPECT_THROW(FaultInjector{sums}, PreconditionError);
}

// --- MeasurementGuard -----------------------------------------------------

class MeasurementGuardTest : public ::testing::Test {
 protected:
  std::vector<double> reference_{10.0, 20.0, 30.0, 40.0};
};

TEST_F(MeasurementGuardTest, CleanSamplesPassThroughBitIdentically) {
  MeasurementGuard guard(reference_);
  const double value = 17.123456789012345;
  const MeasurementGuard::Admitted admitted = guard.admit(1, value);
  EXPECT_EQ(admitted.value, value);
  EXPECT_FALSE(admitted.degraded);
  EXPECT_EQ(guard.gaps_filled(), 0u);
}

TEST_F(MeasurementGuardTest, NanAndNegativeAreRejectedAndRepaired) {
  MeasurementGuard guard(reference_);
  // Day 1 establishes period 1's last-known-good; the corrupt samples on
  // later days of the same period index carry it forward.
  guard.admit(1, 12.0);
  const auto nan = guard.admit(
      1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(nan.degraded);
  EXPECT_EQ(nan.value, 12.0);  // carry-forward
  const auto neg = guard.admit(1, -5.0);
  EXPECT_TRUE(neg.degraded);
  EXPECT_EQ(neg.value, 12.0);
  EXPECT_EQ(guard.nan_rejected(), 1u);
  EXPECT_EQ(guard.negative_rejected(), 1u);
  // A period with no history yet falls back to its reference instead.
  const auto no_history = guard.admit(2, -1.0);
  EXPECT_EQ(no_history.value, reference_[2]);
}

TEST_F(MeasurementGuardTest, GapsCarryForwardThenDecayToReference) {
  MeasurementGuardConfig config;
  config.max_carry_forward = 2;
  MeasurementGuard guard(reference_, config);
  guard.admit(1, 16.0);
  EXPECT_EQ(guard.admit(1, std::nullopt).value, 16.0);  // gapped day 1
  EXPECT_EQ(guard.admit(1, std::nullopt).value, 16.0);  // gapped day 2
  // Beyond the carry budget: blend toward the period's reference.
  const auto blended = guard.admit(1, std::nullopt);
  EXPECT_TRUE(blended.degraded);
  EXPECT_EQ(blended.value, 0.5 * (16.0 + reference_[1]));
  EXPECT_EQ(guard.gaps_filled(), 3u);
  // A good sample closes the gap streak.
  EXPECT_FALSE(guard.admit(1, 17.0).degraded);
  EXPECT_EQ(guard.admit(1, std::nullopt).value, 17.0);
}

TEST_F(MeasurementGuardTest, GapWithNoHistoryFallsBackToReference) {
  MeasurementGuard guard(reference_);
  const auto filled = guard.admit(2, std::nullopt);
  EXPECT_TRUE(filled.degraded);
  EXPECT_EQ(filled.value, reference_[2]);
}

TEST_F(MeasurementGuardTest, SpikesAreClampedToBound) {
  MeasurementGuardConfig config;
  config.max_spike_factor = 4.0;
  MeasurementGuard guard(reference_, config);
  guard.admit(0, 10.0);
  const auto spiked = guard.admit(1, 1000.0);
  EXPECT_TRUE(spiked.degraded);
  EXPECT_EQ(spiked.value, 4.0 * 20.0);  // reference anchor dominates
  EXPECT_EQ(guard.spikes_clamped(), 1u);
  // A large-but-plausible sample is untouched.
  const auto fine = guard.admit(2, 100.0);
  EXPECT_FALSE(fine.degraded);
  EXPECT_EQ(fine.value, 100.0);
}

TEST_F(MeasurementGuardTest, RejectsInvalidConfiguration) {
  EXPECT_THROW(MeasurementGuard({1.0, -2.0}), PreconditionError);
  MeasurementGuardConfig config;
  config.max_spike_factor = 0.5;
  EXPECT_THROW(MeasurementGuard(reference_, config), PreconditionError);
}

}  // namespace
}  // namespace tdp
