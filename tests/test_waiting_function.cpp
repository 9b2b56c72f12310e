#include "core/waiting_function.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/deferral_kernel.hpp"
#include "math/quadrature.hpp"

namespace tdp {
namespace {

class PowerLawNormalization
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(PowerLawNormalization, DiscreteSumsToOneAtMaxReward) {
  const auto [beta, periods] = GetParam();
  const double max_reward = 1.5;
  const PowerLawWaitingFunction w(beta, periods, max_reward);
  double sum = 0.0;
  for (std::size_t t = 1; t < periods; ++t) {
    const double v = w.value(max_reward, static_cast<double>(t));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);  // each term bounded by the sum
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST_P(PowerLawNormalization, ContinuousIntegratesToOneAtMaxReward) {
  const auto [beta, periods] = GetParam();
  const double max_reward = 1.5;
  const PowerLawWaitingFunction w(beta, periods, max_reward, 1.0,
                                  LagNormalization::kContinuous);
  const double integral = math::integrate_adaptive_simpson(
      [&w, max_reward](double t) { return w.value(max_reward, t); }, 0.0,
      static_cast<double>(periods - 1), 1e-11);
  EXPECT_NEAR(integral, 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    BetaPeriods, PowerLawNormalization,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 3.5, 5.0),
                       ::testing::Values(std::size_t{3}, std::size_t{12},
                                         std::size_t{48})));

TEST(PowerLaw, LinearInReward) {
  const PowerLawWaitingFunction w(2.0, 12, 1.5);
  EXPECT_TRUE(w.is_linear_in_reward());
  for (double t : {1.0, 3.0, 7.0}) {
    EXPECT_NEAR(w.value(1.0, t) * 0.6, w.value(0.6, t), 1e-14);
    EXPECT_NEAR(w.reward_derivative(0.3, t), w.value(1.0, t), 1e-14);
  }
  EXPECT_DOUBLE_EQ(w.value(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(-1.0, 1.0), 0.0);
}

TEST(PowerLaw, DecreasingInTime) {
  // "Users prefer to defer for shorter times."
  const PowerLawWaitingFunction w(1.5, 48, 1.5);
  double previous = 1e9;
  for (double t = 0.0; t <= 47.0; t += 0.5) {
    const double v = w.value(1.0, t);
    EXPECT_LT(v, previous);
    previous = v;
  }
}

TEST(PowerLaw, LargerBetaIsLessPatientAtLongLags) {
  // Patient vs impatient comparison (Fig. 3): the impatient curve decays
  // faster, so it is below the patient curve at long lags and above at
  // short lags (both are normalized to the same total mass).
  const std::size_t n = 12;
  const PowerLawWaitingFunction patient(0.5, n, 1.0);
  const PowerLawWaitingFunction impatient(5.0, n, 1.0);
  const double p = 0.49;  // the paper's $0.049 in money units
  EXPECT_GT(impatient.value(p, 1.0), patient.value(p, 1.0));
  EXPECT_LT(impatient.value(p, 10.0), patient.value(p, 10.0));
}

TEST(PowerLaw, ConcaveGammaVariant) {
  const PowerLawWaitingFunction w(2.0, 12, 1.5, 0.5);
  EXPECT_FALSE(w.is_linear_in_reward());
  // Midpoint concavity in p.
  for (double t : {1.0, 4.0}) {
    const double a = w.value(0.2, t);
    const double b = w.value(1.0, t);
    const double mid = w.value(0.6, t);
    EXPECT_GE(mid, 0.5 * (a + b) - 1e-12);
  }
  // Derivative consistency.
  const double h = 1e-7;
  const double fd = (w.value(0.5 + h, 2.0) - w.value(0.5 - h, 2.0)) / (2 * h);
  EXPECT_NEAR(w.reward_derivative(0.5, 2.0), fd, 1e-6);
}

TEST(PowerLaw, LagSumAndIntegralHelpers) {
  EXPECT_NEAR(PowerLawWaitingFunction::lag_sum(1.0, 4),
              1.0 / 2 + 1.0 / 3 + 1.0 / 4, 1e-14);
  // integral_0^{n-1} (u+1)^-1 du = ln(n).
  EXPECT_NEAR(PowerLawWaitingFunction::lag_integral(1.0, 4), std::log(4.0),
              1e-12);
  // beta = 0: sum of ones / plain length.
  EXPECT_NEAR(PowerLawWaitingFunction::lag_sum(0.0, 5), 4.0, 1e-14);
  EXPECT_NEAR(PowerLawWaitingFunction::lag_integral(0.0, 5), 4.0, 1e-12);
}

TEST(PowerLaw, RejectsBadParameters) {
  EXPECT_THROW(PowerLawWaitingFunction(-1.0, 12, 1.0), PreconditionError);
  EXPECT_THROW(PowerLawWaitingFunction(1.0, 12, 0.0), PreconditionError);
  EXPECT_THROW(PowerLawWaitingFunction(1.0, 12, 1.0, 1.5), PreconditionError);
  EXPECT_THROW(PowerLawWaitingFunction(1.0, 1, 1.0), PreconditionError);
  const PowerLawWaitingFunction w(1.0, 12, 1.0);
  EXPECT_THROW(w.value(0.5, -1.0), PreconditionError);
}

TEST(PowerLaw, RejectsNonFiniteNormalization) {
  // An infinite index sends the lag mass to 0 under either normalization,
  // and at beta = 1100 the discrete lag sum underflows to 0 at n = 48
  // (2^-1100 is below the smallest subnormal): C would be infinite and
  // value() NaN, so construction must fail instead.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(PowerLawWaitingFunction(inf, 48, 1.5), PreconditionError);
  EXPECT_THROW(PowerLawWaitingFunction(inf, 48, 1.5, 1.0,
                                       LagNormalization::kContinuous),
               PreconditionError);
  EXPECT_THROW(PowerLawWaitingFunction(1100.0, 48, 1.5), PreconditionError);
  // The continuous mass at beta = 1100 is ~1/1099: a finite function.
  const PowerLawWaitingFunction steep(1100.0, 48, 1.5, 1.0,
                                      LagNormalization::kContinuous);
  EXPECT_TRUE(std::isfinite(steep.normalization()));
  EXPECT_TRUE(std::isfinite(steep.value(1.0, 1.0)));
}

TEST(PowerLaw, TabulatedWeightsMatchLagWeightBitwise) {
  // Every lag table the function owns is the quadrature reference,
  // lag_weight, bit for bit: the uniform-arrival weight at any positive
  // reward (gauss_average of C * p^gamma, as the fleet's deferral table
  // forms it), the unit-reward weights under both conventions, and the lag
  // powers.
  const std::size_t n = 48;
  const std::vector<WaitingFunctionPtr> wfs = {
      std::make_shared<PowerLawWaitingFunction>(
          0.5, n, 1.5, 1.0, LagNormalization::kContinuous),
      std::make_shared<PowerLawWaitingFunction>(
          3.0, n, 1.5, 0.8, LagNormalization::kContinuous),
      std::make_shared<PowerLawWaitingFunction>(
          2.0, n, 1.5, 1.0, LagNormalization::kDiscrete)};
  Rng rng(7);
  for (const auto& wf : wfs) {
    const double* start = wf->unit_weights(LagConvention::kPeriodStart);
    const double* uniform = wf->unit_weights(LagConvention::kUniformArrival);
    for (std::size_t lag = 1; lag < n; ++lag) {
      const double t = static_cast<double>(lag);
      EXPECT_EQ(wf->lag_power(lag), std::pow(t + 1.0, -wf->beta()));
      EXPECT_EQ(start[lag],
                lag_weight(*wf, 1.0, lag, LagConvention::kPeriodStart));
      EXPECT_EQ(uniform[lag],
                lag_weight(*wf, 1.0, lag, LagConvention::kUniformArrival));
      for (int trial = 0; trial < 4; ++trial) {
        const double p = trial == 0 ? 1.5 : rng.uniform(0.0, 1.5);
        EXPECT_EQ(wf->gauss_average(
                      wf->normalization() * std::pow(p, wf->gamma()), lag),
                  lag_weight(*wf, p, lag, LagConvention::kUniformArrival))
            << "beta=" << wf->beta() << " lag=" << lag << " p=" << p;
      }
    }
  }
}

}  // namespace
}  // namespace tdp
