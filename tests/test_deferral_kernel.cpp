#include "core/deferral_kernel.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/paper_data.hpp"

namespace tdp {
namespace {

DemandProfile small_profile(LagNormalization normalization,
                            double max_reward) {
  DemandProfile profile(6);
  for (std::size_t i = 0; i < 6; ++i) {
    profile.add_class(
        i, SessionClass{std::make_shared<PowerLawWaitingFunction>(
                            0.5 + static_cast<double>(i) * 0.7, 6, max_reward,
                            1.0, normalization),
                        3.0 + static_cast<double>(i)});
  }
  return profile;
}

/// A nonlinear (gamma < 1) copy of small_profile to force the slow path.
DemandProfile nonlinear_profile(double max_reward) {
  DemandProfile profile(6);
  for (std::size_t i = 0; i < 6; ++i) {
    profile.add_class(
        i, SessionClass{std::make_shared<PowerLawWaitingFunction>(
                            0.5 + static_cast<double>(i) * 0.7, 6, max_reward,
                            0.999999999),
                        3.0 + static_cast<double>(i)});
  }
  return profile;
}

TEST(DeferralKernel, LinearFastPathMatchesGenericPath) {
  const double P = 1.5;
  const DeferralKernel fast(small_profile(LagNormalization::kDiscrete, P),
                            LagConvention::kPeriodStart);
  // gamma infinitesimally below 1 disables the fast path but is numerically
  // identical.
  const DeferralKernel slow(nonlinear_profile(P),
                            LagConvention::kPeriodStart);
  EXPECT_TRUE(fast.linear());
  EXPECT_FALSE(slow.linear());
  for (std::size_t from = 0; from < 6; ++from) {
    for (std::size_t to = 0; to < 6; ++to) {
      if (to == from) continue;
      for (double p : {0.1, 0.7, 1.4}) {
        EXPECT_NEAR(fast.pair_volume(from, to, p),
                    slow.pair_volume(from, to, p), 1e-6);
        EXPECT_NEAR(fast.pair_volume_derivative(from, to, p),
                    slow.pair_volume_derivative(from, to, p), 1e-5);
      }
    }
  }
}

TEST(DeferralKernel, InflowIsColumnSum) {
  const DeferralKernel kernel(small_profile(LagNormalization::kDiscrete, 1.5),
                              LagConvention::kPeriodStart);
  for (std::size_t into = 0; into < 6; ++into) {
    for (double p : {0.2, 0.9}) {
      double manual = 0.0;
      for (std::size_t from = 0; from < 6; ++from) {
        if (from == into) continue;
        manual += kernel.pair_volume(from, into, p);
      }
      EXPECT_NEAR(kernel.inflow(into, p), manual, 1e-12);
      EXPECT_NEAR(kernel.inflow_derivative(into, p) * p,
                  kernel.inflow(into, p), 1e-12);  // linearity in p
    }
  }
}

TEST(DeferralKernel, ConservationAcrossPeriods) {
  const DeferralKernel kernel(small_profile(LagNormalization::kDiscrete, 1.5),
                              LagConvention::kPeriodStart);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> rewards(6);
    for (double& r : rewards) r = rng.uniform(0.0, 1.5);
    double total_out = 0.0;
    double total_in = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      total_out += kernel.outflow(i, rewards);
      total_in += kernel.inflow(i, rewards[i]);
    }
    EXPECT_NEAR(total_out, total_in, 1e-10);
  }
}

TEST(DeferralKernel, UniformArrivalWeightsDifferFromDiscrete) {
  const DemandProfile discrete =
      small_profile(LagNormalization::kDiscrete, 1.5);
  const DeferralKernel start(discrete, LagConvention::kPeriodStart);
  const DeferralKernel uniform(discrete, LagConvention::kUniformArrival);
  // For a decreasing w, the uniform average over [L-1, L] exceeds the
  // endpoint sample at L.
  EXPECT_GT(uniform.pair_volume(0, 1, 1.0), start.pair_volume(0, 1, 1.0));
}

TEST(DeferralKernel, MaxSafeRewardEqualsNormalizationUnderMatchedConvention) {
  const double P = 1.5;
  // Discrete normalization + period-start lags: outflow at uniform reward r
  // is demand * r / P, so the bound is exactly P.
  const DeferralKernel discrete(
      small_profile(LagNormalization::kDiscrete, P),
      LagConvention::kPeriodStart);
  EXPECT_NEAR(discrete.max_safe_reward(), P, 1e-9);

  // Continuous normalization + uniform arrivals: the Gauss-quadrature lag
  // weights approximate the exact integral, so the bound is P up to
  // quadrature error.
  const DeferralKernel continuous(
      small_profile(LagNormalization::kContinuous, P),
      LagConvention::kUniformArrival);
  EXPECT_NEAR(continuous.max_safe_reward(), P, 1e-3);

  // Mismatched (discrete normalization, uniform lags): strictly lower.
  const DeferralKernel mismatched(
      small_profile(LagNormalization::kDiscrete, P),
      LagConvention::kUniformArrival);
  EXPECT_LT(mismatched.max_safe_reward(), P);
}

TEST(DeferralKernel, PaperProfileKernelProperties) {
  const auto model = paper::static_model_48();
  const DeferralKernel& kernel = model.kernel();
  EXPECT_TRUE(kernel.linear());
  EXPECT_EQ(kernel.periods(), 48u);
  EXPECT_NEAR(kernel.max_safe_reward(),
              paper::kStaticNormalizationReward, 1e-9);
}

TEST(DemandProfile, RejectsWaitingFunctionBuiltForAnotherPeriodCount) {
  // A function's normalization and lag tables are sized to its own n: a
  // 12-period function in a 48-period profile would defer with the wrong
  // mass and read past its tables.
  DemandProfile profile(48);
  const auto twelve = std::make_shared<PowerLawWaitingFunction>(2.0, 12, 1.5);
  EXPECT_THROW(profile.add_class(0, SessionClass{twelve, 1.0}),
               PreconditionError);
  EXPECT_TRUE(profile.classes(0).empty());
  const auto matched =
      std::make_shared<PowerLawWaitingFunction>(2.0, 48, 1.5);
  profile.add_class(0, SessionClass{matched, 1.0});
  EXPECT_EQ(profile.classes(0).size(), 1u);
}

TEST(LagWeight, MatchesDirectEvaluation) {
  const PowerLawWaitingFunction w(2.0, 12, 1.0);
  EXPECT_DOUBLE_EQ(lag_weight(w, 0.5, 3, LagConvention::kPeriodStart),
                   w.value(0.5, 3.0));
  // Uniform average over [2, 3] of a decreasing function lies between the
  // endpoint values.
  const double avg = lag_weight(w, 0.5, 3, LagConvention::kUniformArrival);
  EXPECT_GT(avg, w.value(0.5, 3.0));
  EXPECT_LT(avg, w.value(0.5, 2.0));
}

}  // namespace
}  // namespace tdp
